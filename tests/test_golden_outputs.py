"""Frozen digests of user-visible outputs.

Performance work must leave every output byte-identical: the verifier report,
the normal forms printed by ``russell nf --json``, and the ``--json`` output
and exit code of the derivation commands ``lnd``, ``flow``, ``induce`` and
``kernel-chain``, and the texts of one generated chain through ``conjugate``
and a specialization.  The digests below are SHA-256 hashes of those exact texts;
a change to any normal form, to the canonical print order, or to the report
layout changes them.

A passing report carries no seed-dependent text, so seeds 0..9 share one
digest; the randomized checks still run on seed-dependent samples.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from russell.cli import main
from russell.derivations import (conjugate, example_derivations, flow, induced_graded,
                                 kernel_chain, lnd_bounded, make_derivation)
from russell.parse import parse
from russell.quotient import RING_A
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

DERIVATIONS = {
    "d1": {"ring": "A", "dx": "0", "dy": "-2*t", "dz": "0", "dt": "x^2"},
    "d2": {"ring": "A", "dx": "0", "dy": "-3*z^2", "dz": "x^2", "dt": "0"},
    "delta1": {"ring": "B", "dx": "0", "dy": "-2*t", "dz": "0", "dt": "x^2"},
}

# (derivation, command) -> (exit code, SHA-256 of stdout); induce refuses ring B
DERIVATION_DIGESTS = {
    ("d1", "lnd"):
        (0, "8c25240863f409eeb3cf72a9d5e3e132ea20572cfdac8bdace889f6d494534d7"),
    ("d1", "flow"):
        (0, "e08e100cfd8b20b9a774e2ea7a8372cb43d8d1cb2b44c296b85475c7ffa10a4f"),
    ("d1", "induce"):
        (0, "51586381556c9f77f420891e75be03ef807f01cac313a8f7a2588a54993a30f4"),
    ("d1", "kernel-chain"):
        (0, "0d8451a711e054bcc1627b7ee7cb748ab99a24a47ec897f2067cf5f554844cfe"),
    ("d2", "lnd"):
        (0, "01eaa68d6003c8a3b5c9b748304215f1a6016e626aa1eff0b8bd4b7a5ad0f84d"),
    ("d2", "flow"):
        (0, "50ad4475ae0cb78a6fad9526fa1ead2f715469413437fe4e98652fb36c59404b"),
    ("d2", "induce"):
        (0, "2561212590c9b559ed6583fb55fd5cf4b24cc3512e438cfbd238e0a1238c17c4"),
    ("d2", "kernel-chain"):
        (0, "777b350764d5f39a2eaac6f511e6237f4310b3a1e2569399726d5ec4782fb496"),
    ("delta1", "lnd"):
        (0, "8c25240863f409eeb3cf72a9d5e3e132ea20572cfdac8bdace889f6d494534d7"),
    ("delta1", "flow"):
        (0, "022b3e0c713ea9a12551916c07335f026b277f5d22dc508c91bf390a4775477d"),
    ("delta1", "induce"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta1", "kernel-chain"):
        (0, "0d8451a711e054bcc1627b7ee7cb748ab99a24a47ec897f2067cf5f554844cfe"),
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


@pytest.mark.parametrize("name,command", sorted(DERIVATION_DIGESTS))
def test_derivation_json_digest(name, command, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DERIVATIONS[name]))
    argv = [command, "--file", str(path), "--json"]
    if command == "kernel-chain":
        argv += ["--expr", "y"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert (code, _sha256(out.getvalue())) == DERIVATION_DIGESTS[name, command]


# (x + x^2*z)*d1 conjugated by the flow of (1/2 + x)*d2 in s, then s = 3/2
CHAIN_DIGEST = "92eca5a38a2d49c7af9ed6351675e4395e433ec11019872a1411fbd111cdba96"


def _chain_text() -> str:
    ctx = RING_A.ctx
    examples = example_derivations()
    a, b = parse("x + x^2*z", ctx), parse("1/2 + x", ctx)
    D = make_derivation(RING_A, {v: a * img.poly for v, img in examples["d1"].images.items()})
    E = make_derivation(RING_A, {v: b * img.poly for v, img in examples["d2"].images.items()})
    C = conjugate(D, flow(E, "s"))
    at = {"s": ctx.const(Fraction(3, 2))}
    d = make_derivation(RING_A, {v: C.images[v].poly.substitute(at, target=ctx)
                                 for v in ctx.variables})
    delta = induced_graded(d)
    nu, bottom = kernel_chain(delta, "y")
    return json.dumps({
        "conjugate": {v: str(img) for v, img in C.images.items()},
        "specialized": {v: str(img) for v, img in d.images.items()},
        "lnd": lnd_bounded(d).to_json(),
        "flow": {v: str(img) for v, img in flow(d, "tau").images.items()},
        "induced": {v: str(img) for v, img in delta.images.items()},
        "kernel_chain": [nu, str(bottom)],
    }, indent=2, sort_keys=True)


def test_generated_chain_digest():
    assert _sha256(_chain_text()) == CHAIN_DIGEST
