"""External-model fixture: valid hello, then outputs that are not a matrix of numbers.

The one argument picks the reply: "text" answers [["x"]], "ragged" gives
rows of different lengths.
"""
import json
import sys

OUTPUTS = {"text": [["x"]], "ragged": [[1.0], [1.0, 2.0]]}

print(json.dumps({"type": "hello", "d": 2, "task": "regression", "k": 1}), flush=True)
for line in sys.stdin:
    msg = json.loads(line)
    reply = {"type": "result", "id": msg["id"], "outputs": OUTPUTS[sys.argv[1]]}
    print(json.dumps(reply), flush=True)
