"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# an expression line whose comment opens with the value it evaluates to
CLAIM = re.compile(r"^(\S.*?)\s+# (-?\d[\d.e+-]*)(?:\s|$)")


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run_in_order_in_one_namespace():
    blocks = python_blocks()
    assert len(blocks) >= 3
    namespace = {}
    claims = 0
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            m = CLAIM.match(line)
            if m and "=" not in m.group(1).replace("==", ""):
                assert eval(m.group(1), namespace) == float(m.group(2)), line
                claims += 1
    assert claims >= 3
