"""The top-level library API is the one the README documents."""

import re
from pathlib import Path

import weyl27

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_readme_library_api():
    block = re.search(r"from weyl27 import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block is not None
    documented = [name.strip() for name in block.group(1).split(",") if name.strip()]
    # the README names lines_of_mask in prose, beside the imported helpers
    assert sorted([*documented, "lines_of_mask"]) == sorted(weyl27.__all__)
    for name in weyl27.__all__:
        assert callable(getattr(weyl27, name))
