"""NDJSON prediction server for a regression MLP saved as an .npz file.

    python3 mlp_server.py WEIGHTS.npz

The file holds w0, b0, w1, b1, ... for rectifier hidden layers and an
identity output, the layout of limase.MlpModel. The forward pass is plain
numpy with no state between requests, so the server is pure. Protocol:
print a hello line, then answer each predict request with a result line.
"""
import json
import sys

import numpy as np


def main(path: str) -> None:
    with np.load(path) as saved:
        layers = [(saved[f"w{i}"], saved[f"b{i}"]) for i in range(len(saved.files) // 2)]
    last = len(layers) - 1
    print(json.dumps({"type": "hello", "d": layers[0][0].shape[0],
                      "task": "regression", "k": 1}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        h = np.asarray(request["inputs"], dtype=float)
        for i, (w, b) in enumerate(layers):
            h = h @ w + b
            if i < last:
                h = np.maximum(h, 0.0)
        print(json.dumps({"type": "result", "id": request["id"], "outputs": h.tolist()}),
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
