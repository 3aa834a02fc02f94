import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # the blocks build on each other (the second uses the first's state), so
    # they run in one namespace, in order; a numpy RuntimeWarning fails them
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) == 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            # padded with newlines so that a traceback names the README's own line
            code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
            exec(compile(code, str(README), "exec"), namespace)
