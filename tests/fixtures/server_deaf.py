"""External-model fixture: answers the two purity probes, then stops reading.

Declares a d=30 regression model.  After the probes it sleeps without
reading stdin, so a request larger than the pipe's buffer cannot be
written in full.
"""
import json
import sys
import time

print(json.dumps({"type": "hello", "d": 30, "task": "regression", "k": 1}), flush=True)
for _ in range(2):
    msg = json.loads(sys.stdin.readline())
    print(json.dumps({"type": "result", "id": msg["id"], "outputs": [[0.0]] * len(msg["inputs"])}),
          flush=True)
time.sleep(600)
