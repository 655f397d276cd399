"""External-model fixture: answers batches of up to 4 rows (the purity probe), refuses more."""
import json
import sys

print(json.dumps({"type": "hello", "d": 2, "task": "regression", "k": 1}), flush=True)
for line in sys.stdin:
    msg = json.loads(line)
    if len(msg["inputs"]) > 4:
        reply = {"type": "error", "id": msg["id"], "message": "batches of at most 4 rows"}
    else:
        reply = {"type": "result", "id": msg["id"],
                 "outputs": [[row[0]] for row in msg["inputs"]]}
    print(json.dumps(reply), flush=True)
