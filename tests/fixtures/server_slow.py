"""External-model fixture: answers a request 1 s late when its first input exceeds 1000.

Every other request is answered at once with the sum of each row.
"""
import json
import sys
import time

print(json.dumps({"type": "hello", "d": 2, "task": "regression", "k": 1}), flush=True)
for line in sys.stdin:
    msg = json.loads(line)
    if msg["inputs"][0][0] > 1000:
        time.sleep(1.0)
    outputs = [[sum(row)] for row in msg["inputs"]]
    print(json.dumps({"type": "result", "id": msg["id"], "outputs": outputs}), flush=True)
