"""``docs/api.md`` is generated: the committed file is what
``scripts/gen_api_docs.py`` renders from the code next to it."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "gen_api_docs.py"

spec = importlib.util.spec_from_file_location("gen_api_docs", SCRIPT)
gen_api_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen_api_docs)


@pytest.mark.skipif(
    sys.version_info[:2] != gen_api_docs.GENERATING_PYTHON,
    reason="inspect.signature renders Enum classes differently per version",
)
def test_committed_api_reference_is_what_the_generator_renders():
    committed = gen_api_docs.OUT_PATH.read_text(encoding="utf-8")
    assert committed == gen_api_docs.render(), (
        "docs/api.md is stale: run `python scripts/gen_api_docs.py`"
    )
