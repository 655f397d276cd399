"""External-model fixture: valid hello, then 200,000 nested "[" as a reply.

json.loads gives up on that line with a RecursionError, not a JSONDecodeError.
"""
import sys

print('{"type": "hello", "d": 2, "task": "regression", "k": 1}', flush=True)
for _ in sys.stdin:
    print("[" * 200_000, flush=True)
