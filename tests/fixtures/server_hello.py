"""External-model fixture: a d=2 regression hello with one field replaced, then zeros.

The two arguments name the field and give its value as JSON: "d true"
sends {"d": true, ...}, "k 1.0" sends {"k": 1.0, ...}.
"""
import json
import sys

hello = {"type": "hello", "d": 2, "task": "regression", "k": 1}
hello[sys.argv[1]] = json.loads(sys.argv[2])
print(json.dumps(hello), flush=True)
for line in sys.stdin:
    msg = json.loads(line)
    print(json.dumps({"type": "result", "id": msg["id"],
                      "outputs": [[0.0]] * len(msg["inputs"])}), flush=True)
