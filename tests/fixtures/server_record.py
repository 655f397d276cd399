"""External-model fixture: appends each raw request line to a log file.

    python3 server_record.py LOG D

Declares a d-column regression model and answers every row with the sum
of its cells, so the answers depend on every value the parent sent.
"""
import json
import sys

log_path, d = sys.argv[1], int(sys.argv[2])
print(json.dumps({"type": "hello", "d": d, "task": "regression", "k": 1}), flush=True)
with open(log_path, "ab") as log:
    for line in sys.stdin.buffer:
        log.write(line)
        log.flush()
        msg = json.loads(line)
        outputs = [[sum(row)] for row in msg["inputs"]]
        print(json.dumps({"type": "result", "id": msg["id"], "outputs": outputs}), flush=True)
