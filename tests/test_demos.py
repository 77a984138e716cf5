"""The demo scripts print, byte for byte, the output pinned below."""
import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout
PINNED = {
    "01_quaternion_structure.py":
        "0cce61339904e7cbcc2c07184aff790afe26f7ec1e042dc8932a7997bdf91383",
    "02_skew_decomposition.py":
        "16cd729ffb604b4e4086e03ef169893e5effb516b40690e101133f1ccb155cf8",
    "03_exact_entropy.py":
        "2e228a97ec15aa7738304831b4798d0a0bcfec1f8ef54de4f0dd4b5724f75342",
    "04_diffusion_ranks.py":
        "775ec4abfb2dd8ebc8f94bc6de2fefd6e851372a979f91016b7580c0dee18ab4",
    "05_cesaro_randomization.py":
        "221bb4d139ed36775722d14bed0f847dd91ab5f51863ab4c32da271fc461ccdf",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_prints_its_pinned_output(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[name]
