"""External-model fixture: valid hello, then an error whose message has an "é".

The reply is written with ensure_ascii=False, so the "é" reaches the parent
as two UTF-8 bytes whatever the child's locale.  With the argument
"latin-1" it is written as the one Latin-1 byte 0xE9 instead, which is not
UTF-8.
"""
import json
import sys

encoding = sys.argv[1] if len(sys.argv) > 1 else "utf-8"
out = sys.stdout.buffer
out.write(b'{"type": "hello", "d": 2, "task": "regression", "k": 1}\n')
out.flush()
for line in sys.stdin:
    reply = {"type": "error", "id": json.loads(line)["id"], "message": "refusé on purpose"}
    out.write(json.dumps(reply, ensure_ascii=False).encode(encoding) + b"\n")
    out.flush()
