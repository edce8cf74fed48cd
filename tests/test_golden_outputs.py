"""Frozen digests of user-visible outputs.

Performance work must leave every output byte-identical: the verifier report
and the normal forms printed by ``russell nf --json``.  The digests below
are SHA-256 hashes of those exact texts; a change to any normal form, to the
canonical print order, or to the report layout changes them.

A passing report carries no seed-dependent text, so seeds 0..9 share one
digest; the randomized checks still run on seed-dependent samples.
"""

import contextlib
import hashlib
import io
import json

import pytest

from russell.cli import main
from russell.verifier import report_to_json, run_all

REPORT_DIGEST = "67a6d29e745c4f5f7414c8bbbc55ba018f719a5fe95c436de94547f2a672e381"

NF_DIGESTS = {
    ("A", "(x + y + z + t + 1)^8"):
        "b30856a22ca8f77d4719ab2fe786de11679893bbf201c58f0f1c2c5f2c4c0254",
    ("A", "(x^2*y - 3*x*y^2 + z*t + 1/2)^5 * (x - t)^3"):
        "3592f96b80f71bd8230f1c7975be13b4cf802ce2a164cee448f67cbeb39e4bd0",
    ("A", "x^30*y^30*(z + t)^2"):
        "3b3cf4f00e821b1c0c72de7de8709f398bc7c15d92d0882a2f6f024d68daed88",
    ("B", "(x*y + z^2 - t + 2)^6"):
        "449fb3408f0b77c1dba99148f247441d52690f2bf045632c9f421469817e0b27",
    ("B", "(x + y + z + t)^7"):
        "0e467c315849570f89cfd278cfbd5bf5ee714cf73c436ac5ed9c1624a7c63595",
    ("V", "(x + z + t + 1)^10"):
        "fe41a1f33524b0a2a9d8d76e452efbdc75dbf0010bf417dfe2efed558264c680",
    ("V", "(x^3 - 2*z*t + 1/3)^6"):
        "622c9c0814c3bd4c5dea1201ba57c93d911d56986e46f1e41b393505d5b53ca4",
    ("Neil", "(z + t + 1)^14"):
        "baca1fa2a811c2343a309c3cb74875d38a930486753ddd98000df3a985ff99ba",
    ("Neil", "(z^2*t - t^3 + 5)^7"):
        "fd23e372b2b10931a6ba853db413bd69a7197c0b3b58cccffbd1390e2614ee5c",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", range(10))
def test_verify_paper_report_digest(seed):
    text = json.dumps(report_to_json(run_all(seed)), indent=2)
    assert _sha256(text) == REPORT_DIGEST


@pytest.mark.parametrize("ring,expr", sorted(NF_DIGESTS))
def test_nf_json_digest(ring, expr):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["nf", "--ring", ring, "--expr", expr, "--json"]) == 0
    assert _sha256(out.getvalue()) == NF_DIGESTS[ring, expr]
