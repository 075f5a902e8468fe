"""SHA-256 digests of the package's deterministic outputs.

Each entry of ``DIGESTS`` names one output and the digest of its bytes, so
a change that moves an output, on purpose or not, moves its digest.  Print
the table the current code gives with

    PYTHONPATH=src python tests/test_digests.py

The table covers:

* the ``SplitMix64`` draws ``words``, ``uniform_open01`` and ``signs``, and
  ``generate``'s ``uniform`` distribution, at counts on both sides of a
  block edge (2^15 - 1, 2^15 and 2^15 + 1), for seeds 0 and 2^64 - 1;
* on uniform draws of n = 1, 63, 64, 65 and 4097 values, and on one vector
  of 4097 subnormal values: the BQT1 bytes of ls1, ls2, ternary and
  greedy-2 to greedy-4, which are a header, the levels and the packed
  planes, so they hold each fit whole; and the codebook, thresholds and
  codes of Lloyd at k = 1 to 3;
* at each of those sizes, greedy-2 fits of uniform draws as rows against
  ls2, ternary or greedy-3 fits of further draws as columns: the
  ``quantized_matmul`` values of 3 rows by 3 columns, and the
  ``quantized_dot`` value and cross terms of one row and one column; and
  at n = 4097 the values of 64 rows by 32 columns, a product large enough
  that the kernel steps through the words;
* the FQT and CSV bytes of a vector, and the FQT bytes of a matrix;
* the stdout of ``gen`` and ``quantize``.

Every input comes from integer operations and IEEE arithmetic, which round
one way on every machine.  The packed products use only popcounts, IEEE
multiplies and one sequential add per entry, and no BLAS.  Outputs whose
last bits depend on the machine are left out:

* Draws through transcendental functions: ``normal`` (log, cos and sin),
  and ``generate``'s ``normal``, ``laplace`` (log1p) and ``lognormal``
  (exp).  numpy chooses an implementation of these per CPU when it is
  imported, SIMD code on CPUs with AVX-512 and the C library's elsewhere,
  and the two differ in the last bit on some values: with numpy's AVX-512
  paths turned off through ``NPY_DISABLE_CPU_FEATURES``, 48 of 2^15 normal
  draws at seed 0 move.  ``tests/test_rng.py`` checks these draws against
  whole-array formulas computed in the same process instead.
* Outputs whose bits follow the summation order of the BLAS or LAPACK
  build, which differs between OpenBLAS kernels on one machine:
  ``rank1_binary`` and ``energy_profile``, which rest on BLAS products and
  LAPACK eigensolvers; ``lloyd_to_scaled_binary``, whose levels come from
  ``np.linalg.lstsq``; ``angle``, which takes BLAS ``dot`` and ``norm``;
  and ``reconstruct`` beyond 4 planes, and so ``objective`` and
  ``--recon``: ``levels @ planes`` is a BLAS product, summed in the
  kernel's order.  The ``mse`` in ``quantize``'s stdout comes from at most
  2 planes here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bitquant import (
    SplitMix64,
    SyntheticSpec,
    generate,
    pack_quantization,
    quantize_greedy,
    quantize_lloyd,
    quantize_ls1,
    quantize_ls2,
    quantize_ternary,
    quantized_dot,
    quantized_matmul,
    save_packed,
    save_tensor,
)
from bitquant.cli import main

SEEDS = (0, 2**64 - 1)
COUNTS = (2**15 - 1, 2**15, 2**15 + 1)
FITS = {
    "ls1": quantize_ls1,
    "ls2": quantize_ls2,
    "ternary": quantize_ternary,
    **{f"greedy-{k}": partial(quantize_greedy, k=k) for k in (2, 3, 4)},
}
FIT_SIZES = (1, 63, 64, 65, 4097)
PRODUCT_COLUMNS = ("ls2", "ternary", "greedy-3")


def _uniform(n, seed, a=-1.0, b=1.0):
    return generate(SyntheticSpec("uniform", n, seed, (a, b)))


def fit_inputs():
    """Uniform draws at sizes around one and two words, and past 4096, and
    the largest of them scaled into the subnormal range."""
    out = {f"uniform-{n}": _uniform(n, n) for n in FIT_SIZES}
    out["subnormal-4097"] = np.ldexp(out["uniform-4097"], -1051)
    return out


def _draw(name, seed, count):
    return getattr(SplitMix64(seed), name)(count).tobytes()


def _generate(count, seed):
    return _uniform(count, seed, -2.0, 3.0).tobytes()


def _bqt1(method, x):
    save_packed(pack_quantization(FITS[method](x)), "q.bqt")
    return Path("q.bqt").read_bytes()


def _packed(method, n, count, first=0):
    """Packed ``method`` fits of ``count`` uniform draws of n values; draw 0
    is the fit input of that size."""
    return [
        pack_quantization(FITS[method](_uniform(n, n + 1000 * i)))
        for i in range(first, first + count)
    ]


def _matmul(col_method, n, m, p):
    rows = _packed("greedy-2", n, m)
    cols = _packed(col_method, n, p, first=m)
    return quantized_matmul(rows, cols).tobytes()


def _dot(col_method, n):
    result = quantized_dot(_packed("greedy-2", n, 1)[0], _packed(col_method, n, 1, first=1)[0])
    return np.float64(result.value).tobytes() + result.cross_terms.tobytes()


def _lloyd(k, x):
    lq = quantize_lloyd(x, k)
    return b"".join(
        a.astype(dtype).tobytes()
        for a, dtype in ((lq.codebook, "<f8"), (lq.thresholds, "<f8"), (lq.codes, "<i8"))
    )


def _tensor(data, name):
    save_tensor(data, name)
    return Path(name).read_bytes()


def _stdout(*argvs):
    """The stdout of the CLI commands ``argvs``, run in turn."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            assert main(list(argv)) == 0
    return out.getvalue().encode()


def outputs():
    """Each output's name and a call that returns its bytes; calls that
    write files write them to the working directory."""
    out = {}
    for seed in SEEDS:
        for count in COUNTS:
            for draw in ("words", "uniform_open01", "signs"):
                out[f"rng/{draw}/seed={seed}/n={count}"] = partial(_draw, draw, seed, count)
            out[f"generate/uniform/seed={seed}/n={count}"] = partial(_generate, count, seed)
    for label, x in fit_inputs().items():
        for method in FITS:
            out[f"bqt1/{method}/{label}"] = partial(_bqt1, method, x)
        for k in (1, 2, 3):
            out[f"fit/lloyd-{k}/{label}"] = partial(_lloyd, k, x)
    for n in FIT_SIZES:
        for method in PRODUCT_COLUMNS:
            out[f"matmul/greedy-2@{method}/uniform-{n}"] = partial(_matmul, method, n, 3, 3)
            out[f"dot/greedy-2@{method}/uniform-{n}"] = partial(_dot, method, n)
    out["matmul/greedy-2@greedy-3/uniform-4097/64x32"] = partial(_matmul, "greedy-3", 4097, 64, 32)
    vector = _uniform(4097, 11, -2.0, 3.0)
    matrix = _uniform(65 * 33, 12).reshape(65, 33)
    out["fqt/vector"] = partial(_tensor, vector, "v.fqt")
    out["csv/vector"] = partial(_tensor, vector, "v.csv")
    out["fqt/matrix"] = partial(_tensor, matrix, "m.fqt")
    gen = ("gen", "--dist", "uniform(-1,1)", "--shape", "4097", "--seed", "5", "--out", "x.fqt")
    out["stdout/gen"] = partial(_stdout, gen)
    out["stdout/gen-matrix"] = partial(
        _stdout, ("gen", "--dist", "uniform(-2,3)", "--shape", "65", "33", "--out", "m.fqt")
    )
    for method in ("ls1", "ls2", "ternary", "greedy-2"):
        quantize = ("quantize", "--in", "x.fqt", "--method", method, "--out", "x.bqt")
        out[f"stdout/quantize/{method}"] = partial(_stdout, gen, quantize)
    return out


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


OUTPUTS = outputs()

DIGESTS = {
    "rng/words/seed=0/n=32767": "bc175820ec691b59b681bcd1ef06b96e609fc00d30befde9a24546ac23f33923",
    "rng/uniform_open01/seed=0/n=32767": "973f2c0bb5a9dd5c840f1184d9f1093c2b5e583740aac08f672d1e439597841b",
    "rng/signs/seed=0/n=32767": "6ade2c5f0340a59a75060697ebc940cf590f980f919d10f0c21620d215f1a60b",
    "generate/uniform/seed=0/n=32767": "f1d09a1180abf021f4e32f732a9b609690f0f0280df7b34d290e18b814f9028f",
    "rng/words/seed=0/n=32768": "b0c964cd429d6f501763d556fa9523b9d3d8e31e8099ece5bb18574f6ce929a9",
    "rng/uniform_open01/seed=0/n=32768": "fc59af2bb23fc1c1b6620846523c6a7ff53673c25c6eec6ece19f2f6e98f33d4",
    "rng/signs/seed=0/n=32768": "9f9600503dcce3199895577df7b4e9307e6cf2c0b39bbb2181b572c1f9fcfc01",
    "generate/uniform/seed=0/n=32768": "719ddfa205c2360e8c6a63b335f21d22d60414364e7935528eb4eb474a0418cb",
    "rng/words/seed=0/n=32769": "a5d872714c00e8d56751375819b637b1c94940f99c6a845888401f0a42ea8d95",
    "rng/uniform_open01/seed=0/n=32769": "69237dd70402d9d50095c1c80bdde72cbf302bfb97cc115a7e659231825ded52",
    "rng/signs/seed=0/n=32769": "c6adad1679559525166adfa90eab057e7435af60037144066aa131d0280bf594",
    "generate/uniform/seed=0/n=32769": "ad1a532d3ab0a364a4db9305ec469cbd2e3aa8c898f6684f1cc12e677e68b5f8",
    "rng/words/seed=18446744073709551615/n=32767": "924a53fd4e9efd4e3e9a9f1e56c647cc95369a8a838e6ba17b4d41cd23ad45c4",
    "rng/uniform_open01/seed=18446744073709551615/n=32767": "54910844cc339db6465d650dd926fa48fccfd340b795871b203a784c9ddffce9",
    "rng/signs/seed=18446744073709551615/n=32767": "2b08e7f71fcf3fe3ef22d3556f09538e0b9b17c76ccfab23f1087bc44d16b026",
    "generate/uniform/seed=18446744073709551615/n=32767": "d7b886a9733f8bf0127188491a85c21096512778c9c8ea71a18f26319760806d",
    "rng/words/seed=18446744073709551615/n=32768": "a1b352c56385b5b3c9991b94b0d907549f9597d45f3243d0c1aed45bf6e9f826",
    "rng/uniform_open01/seed=18446744073709551615/n=32768": "4007a8716d66e5e28abf34200fc58815cb90c9f15f14a092a9dea8928eabc81d",
    "rng/signs/seed=18446744073709551615/n=32768": "8e1683935afade460462b3252cef838bda68f417d37aa7b14876ae6edcee763f",
    "generate/uniform/seed=18446744073709551615/n=32768": "358d87964435795c031a350ffd11c46a8ab05b67830ca1259f45f251c2c53124",
    "rng/words/seed=18446744073709551615/n=32769": "0e9114ae9107cb4f6b289b91dc98c374f65c4bad38e65478d8b4513595beb215",
    "rng/uniform_open01/seed=18446744073709551615/n=32769": "f51c755dc878c93195108b0c96b19a82c51656e5fea8628bee2c5efda4521adf",
    "rng/signs/seed=18446744073709551615/n=32769": "204a09e449c166a963f96054ae16762a55816a805b69b2aaf7fce8c32d4b335f",
    "generate/uniform/seed=18446744073709551615/n=32769": "f64cbb703d4262a6f6b8586c5ba4d09ae3005e3dbde83a33e5e46373f68e6394",
    "bqt1/ls1/uniform-1": "18fda71d6f9e148f9e61073efa6f6723b1e388e1055706ba8c3aa458da646bdc",
    "bqt1/ls2/uniform-1": "23c398657c43a756cf109d1f0f00142fde29ba49fc93cc17dcf9a657554a258f",
    "bqt1/ternary/uniform-1": "23c398657c43a756cf109d1f0f00142fde29ba49fc93cc17dcf9a657554a258f",
    "bqt1/greedy-2/uniform-1": "22da338ac2aca6cb42304c1cf0005ca9724ab1d709c6fe0ab99ac105d3cd9a38",
    "bqt1/greedy-3/uniform-1": "ad863657828731c91a1bd49385c44f1ce54a2209f8dabc2056b47b4e9c87096a",
    "bqt1/greedy-4/uniform-1": "35564097a2c852cef44f4580b507805a10d22122af5c570ed4ad52e3ac7c0f2c",
    "fit/lloyd-1/uniform-1": "3147081fdde3a60df37062e4816574855af4eb436d712c59f83bdd04b556c446",
    "fit/lloyd-2/uniform-1": "ff67eb5729ceb4603c86ec7f122f9964a00107e42c698cf0d774a3f16c8631e3",
    "fit/lloyd-3/uniform-1": "24a3eb1303e2f5479e57227e95b7ffb29b1a263b49cc8ef5a21e5ce8de40d1c6",
    "bqt1/ls1/uniform-63": "8702b9b45974ae42651535c69d750f86841fbfab7e66de3267c65f3097a5c96a",
    "bqt1/ls2/uniform-63": "0105e99bd13752c81623ff8071cd961df62f2744157049a06b63e628ae6b76ec",
    "bqt1/ternary/uniform-63": "ce70e6e4a3bb7e50404a978b3df2cc2a96bdfc4f1cdd5ffcdf5c38fce1be3d5a",
    "bqt1/greedy-2/uniform-63": "ed8923c52ea7c748650d531bf7d1cbb4fcaf1ff77c1d61845925b92d8f4e3bad",
    "bqt1/greedy-3/uniform-63": "78cd4b1bff406a74fa5e4c8f3a86ff8b0e0d0cfa28f7fc2534873bb76703e9f9",
    "bqt1/greedy-4/uniform-63": "7416f67c6deb599f0420a8a322a316e30438e8057c341146185173a0349d0f61",
    "fit/lloyd-1/uniform-63": "5553ce0b2d97504846808ad679cf999a42a096ef5c9e491d16249ac33f60131d",
    "fit/lloyd-2/uniform-63": "59434a7dacbda97ae5a3d2b0bad2961bfe7c7e5716d650534935e2dc6ac3e930",
    "fit/lloyd-3/uniform-63": "5eabefc44d1eccfa3aa19681354efb4dfc57b34a931a6eed9788fbb729665b40",
    "bqt1/ls1/uniform-64": "8d3a4f0e32f428e7642069fa0ba13f9af3628a955f4b318c9b4cf1649d9af910",
    "bqt1/ls2/uniform-64": "ad59e9c86ecd6edb2536e9be987161ec30a7093a3a99493e1acbc28308636dd9",
    "bqt1/ternary/uniform-64": "98e78e9b301ac549996c2fbfc5a4c265d7197df95c3c17233314f94ac328c62a",
    "bqt1/greedy-2/uniform-64": "82aea1acc0ee82265e7c14916cbf283f180bc46280791b4d842701814309afc7",
    "bqt1/greedy-3/uniform-64": "144adc41733129ff7edbd158cef4557dee386338f92b4d0c138be8fccf0ea7d2",
    "bqt1/greedy-4/uniform-64": "c4ced8539e54e9c319a558b99d8ff03ed2e8a96f66e642e4aafc0d32811d1bd5",
    "fit/lloyd-1/uniform-64": "9aacb39800ed611a27eff919021e74a7e8692d1a21ff7cf10c3a833a108c35d4",
    "fit/lloyd-2/uniform-64": "afe37a0cd6821092397972c844195f2a94ef0488756bef84c40dfed30f367c23",
    "fit/lloyd-3/uniform-64": "475b0ebed57c940a3f2dc91f6ec38be9117eb6723ff8e504d1059ecc084fadbb",
    "bqt1/ls1/uniform-65": "c501b2ff699a07ff04ad809c541179896f8265f30603422dc6c82223f3e5513c",
    "bqt1/ls2/uniform-65": "e8df3f702016d452d6cf10902664a30ad858ea7244efa7364f5b66667cd63c74",
    "bqt1/ternary/uniform-65": "67fb07fda45e85be1759299ba2988157693d7227e4924073486ca235e2273282",
    "bqt1/greedy-2/uniform-65": "6cb4b9d7bd8f19108b604e953c1312e7cb13b8be6d9a450a80e9920294b0ee7e",
    "bqt1/greedy-3/uniform-65": "a9162345015f8d8e281a2443ecb702b0118b11a3097011c41afb2955d16da039",
    "bqt1/greedy-4/uniform-65": "89bdca2e8f328d1ee7d73bb68aed67df9ce90a98ed4554e7043809a0e03874bd",
    "fit/lloyd-1/uniform-65": "8477681a7c37e7d8edad8bd09b9507215c6cfdb2ee774233216c0706f445332b",
    "fit/lloyd-2/uniform-65": "b9a618e458cbb6bd023d8d4f849aeafdee62721b7afa1ef58112d6523fd2f6ff",
    "fit/lloyd-3/uniform-65": "63ff5bcab43fc7d551ea7971c7b69b47c107d61783ca6000d0be7a05413e2fdb",
    "bqt1/ls1/uniform-4097": "1844a827c62d9885da993275e1a6fada12fd43d38f91bd69aa1c8ec38603057a",
    "bqt1/ls2/uniform-4097": "0380315a2dcb5ec954b60ce82f2d7aafaf6d15cef963b3d92f086c3c608a0ce1",
    "bqt1/ternary/uniform-4097": "0d9042357171e187a1006839e8bf45539d655bc002635aa0928ac9d7bf76650f",
    "bqt1/greedy-2/uniform-4097": "218d100768a06a0e8dc10b912aac043b33bdefeceb110595883929b900d14fcd",
    "bqt1/greedy-3/uniform-4097": "471bf187fb0d695bc5fc858ea1979f88c57f76a46bdad83d28ddbcf3adea64c4",
    "bqt1/greedy-4/uniform-4097": "0943306ac087da8e898b91955f3a41d131cb41fed1b6740d452d51e227e02ddd",
    "fit/lloyd-1/uniform-4097": "398e7b12e97d6e9ca020de05b252c0ed12114845b0e270372a4430bc175b65c6",
    "fit/lloyd-2/uniform-4097": "90d9260a9dbc855cb9d42de45c10ee24f71b821b1f12065eff894179f6612110",
    "fit/lloyd-3/uniform-4097": "d3a2e649c6414ef825e63696d3c978b884f914977a88891c20200bedcfc67253",
    "bqt1/ls1/subnormal-4097": "2335d3122bdb99fea44c1a9e19fcb96fe24a1157aa814da12a0ee9da1756a87c",
    "bqt1/ls2/subnormal-4097": "d97fc24e3fe9b41d3ce43f9d4b5006e2d9de1e96d671751d0b50caa39888e08b",
    "bqt1/ternary/subnormal-4097": "d5a32b90aa737739f0d0868f627349141d52537b5805fe3a54d3303ab61cdf53",
    "bqt1/greedy-2/subnormal-4097": "e0a45f731f33354c14105298ae19945e7c48e38573f59fbc6d4e0597e198045d",
    "bqt1/greedy-3/subnormal-4097": "6e66d8f25613100ff4c76cf84047e3ed80c85d4e088ff95853d8208cccd06b20",
    "bqt1/greedy-4/subnormal-4097": "23e46235a0ac8b6f3a92e8cf102ea19674beb0e9d7037c5270d72803558ad155",
    "fit/lloyd-1/subnormal-4097": "b2412bc654974ac6f0132fb0688f010c10e2f84d4f15f23458d97da5c1c6f316",
    "fit/lloyd-2/subnormal-4097": "6c279c71d91f86e762d6d3a53195e1b62d4bb0115ca6ceb4bf775bf0c4cd8ce0",
    "fit/lloyd-3/subnormal-4097": "dd7b2205f11865fd2034f345641c7a189ee8a822538f59901eeb600cf8e7a743",
    "matmul/greedy-2@ls2/uniform-1": "618da8e8a12b33febe4fb2b659900200a220a1a4616ffecc308e2527ddc8f3d6",
    "dot/greedy-2@ls2/uniform-1": "3efd263a773748790aa7e384822c079a821249b74384e0ecfcdf9c0ec8a24db1",
    "matmul/greedy-2@ternary/uniform-1": "618da8e8a12b33febe4fb2b659900200a220a1a4616ffecc308e2527ddc8f3d6",
    "dot/greedy-2@ternary/uniform-1": "3efd263a773748790aa7e384822c079a821249b74384e0ecfcdf9c0ec8a24db1",
    "matmul/greedy-2@greedy-3/uniform-1": "618da8e8a12b33febe4fb2b659900200a220a1a4616ffecc308e2527ddc8f3d6",
    "dot/greedy-2@greedy-3/uniform-1": "486174525c82f87551377067f358afc0695ba8882b686f4520c48ca504a22dde",
    "matmul/greedy-2@ls2/uniform-63": "6c84dddb75e760779eb6906d8431752e3638e22f6045a58004c921c1d8d23e9d",
    "dot/greedy-2@ls2/uniform-63": "de2589604913749fa989c5219bafe210fd3404a29915be03f3ae25662301ae1d",
    "matmul/greedy-2@ternary/uniform-63": "3f582fc0158418a662626270ac014c0946043ef5d39e782ffe2698b39f6dd985",
    "dot/greedy-2@ternary/uniform-63": "5fcfe8abace8df0f4d63049cc3cddb50daddc61cce0363e8b00e6f75b89f2d6d",
    "matmul/greedy-2@greedy-3/uniform-63": "00379c871764547a678ad7c7a0f7ec4a18d2119a2a53e25ec75efc9fafe1bbee",
    "dot/greedy-2@greedy-3/uniform-63": "45ba0c78cbf14b1bacbb7eff5424ad7bf979af604d283ee6c6c3bc79d8c0a012",
    "matmul/greedy-2@ls2/uniform-64": "c2517736d5496241dfed984a0a837b37328fd8987a1a5be101019dc94364d7e6",
    "dot/greedy-2@ls2/uniform-64": "736d434b2b6716c64f68937a8d4903e1c3c7978f34651fef59f254f3972bc9f2",
    "matmul/greedy-2@ternary/uniform-64": "aa0f99fb86f2f66ae6a91588acd1ececa6aeb211ec223c72b84408803433109f",
    "dot/greedy-2@ternary/uniform-64": "60125d72fce8d623c61a4d868bd5a98978c71ca1ddec7baf486c6bbad6a370ec",
    "matmul/greedy-2@greedy-3/uniform-64": "314b7a36afbe7e8d62463cde0c2b578e4a0c39bc6c011efa25255ceaa7c9930e",
    "dot/greedy-2@greedy-3/uniform-64": "eaa570bd30216bcf4170553392a2087757d6f10b5c551a5afe39e8e014eefa5c",
    "matmul/greedy-2@ls2/uniform-65": "cf479d8ae3b0cc4794816edb056ceea6e9268c6e1ff2f5d5133ff2dbc063219f",
    "dot/greedy-2@ls2/uniform-65": "8ce45103dfa3ddb6f181aef66697fd882745e2c17c36839c3d3c6b2e9d493a05",
    "matmul/greedy-2@ternary/uniform-65": "9c6b2332f7eca7c77d2f61c3b92614118cb5b1189f9cfad48a51a528f2e90302",
    "dot/greedy-2@ternary/uniform-65": "20e304c66200ca1865c4b27b8d244c8aef491db194e88ff2e6b738dc3383a70e",
    "matmul/greedy-2@greedy-3/uniform-65": "dda7899bf9a6af869e7ee1fe7efc7465d54eb1955235ee3ecf87ddc488dd53ad",
    "dot/greedy-2@greedy-3/uniform-65": "3c69743abd67dca9160c5054911cac8b41a5ef380ed5b66a6b7730f808899b68",
    "matmul/greedy-2@ls2/uniform-4097": "c3cdc7bef0d9a65b81b3f68ae2a18761f888fd8efffcac5a2c6b174233142fb0",
    "dot/greedy-2@ls2/uniform-4097": "525c2239dfed835eef9493ca8ba790fe24c0ae0aab5197f96a8932bb4ab9dac6",
    "matmul/greedy-2@ternary/uniform-4097": "4786b4b401ea427acbd39dd9d7bf29bf9235f70a9c4934bb032e2e2550f74049",
    "dot/greedy-2@ternary/uniform-4097": "b4b9ceb4c9f535ca0c941e2a068f701b5389495098e2380b6115b38397e1c4bb",
    "matmul/greedy-2@greedy-3/uniform-4097": "ba415303968980ba32f6e9c565fce81200027695d79edf9dcd7eafe358bdedac",
    "dot/greedy-2@greedy-3/uniform-4097": "da08e550c5d415b58f69295a3066ae88b3414cfd04db42814ec566a25b7de7d4",
    "matmul/greedy-2@greedy-3/uniform-4097/64x32": "47dc6b4c6e8501b70faf588d6dc64b4b9517d14097450b278c9dedb541346318",
    "fqt/vector": "b69cc2712dd300441f752f49644937e7516b6993887dcbe6df02564ab0906dee",
    "csv/vector": "5b50f6063bc946f2477a6b98f4738d3ee30d3eb4052d888487d6101930428004",
    "fqt/matrix": "199fc2c38e752918088b00291f0f6da602b9147ad33e66027e15a2ec168ae9ca",
    "stdout/gen": "71e88f49f46a2bd29947ef3c5000cc754a7f666d073466946cd1799edd217d44",
    "stdout/gen-matrix": "f32589b287a6c5185f7e6323da96b068c7cc0e7dd5f2d0bd4d6affe7bb6228eb",
    "stdout/quantize/ls1": "d9ced9595566931bbc1fa48fd71370c2a2a4d2318ff6b317a52076bb5a1faead",
    "stdout/quantize/ls2": "5a895474e4a39c991943cb563cba06ddd012fe4f36da738150b28303412cb190",
    "stdout/quantize/ternary": "3eadf9913bc1ceb75fde249d99ce9824bffbce1113d62b4327c9a99a08542b05",
    "stdout/quantize/greedy-2": "f67d6d336916fee8d273772e4c0d8cfadbed76b5792e6e858c24aaab21e287ec",
}


def test_every_output_has_a_digest():
    assert list(OUTPUTS) == list(DIGESTS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_output_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digest(OUTPUTS[name]()) == DIGESTS[name]


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name, output in OUTPUTS.items():
            print(f'    "{name}": "{digest(output())}",')
        os.chdir(home)
