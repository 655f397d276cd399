"""External-model fixture: valid hello, then results whose id was not issued.

The one argument picks the id: "text" answers "x<id>", "float" <id> + 0.5,
"bool" true, "null" null, "ahead" <id> + 1000 and "negative" -1.
"""
import json
import sys

IDS = {"text": lambda i: f"x{i}", "float": lambda i: i + 0.5,
       "bool": lambda i: True, "null": lambda i: None,
       "ahead": lambda i: i + 1000, "negative": lambda i: -1}

print(json.dumps({"type": "hello", "d": 2, "task": "regression", "k": 1}), flush=True)
for line in sys.stdin:
    msg = json.loads(line)
    reply = {"type": "result", "id": IDS[sys.argv[1]](msg["id"]),
             "outputs": [[0.0]] * len(msg["inputs"])}
    print(json.dumps(reply), flush=True)
