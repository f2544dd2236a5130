"""Golden outputs: the exact stdout, stderr and exit code of every command.

Each case runs ``cli.main`` in-process and hashes what it printed. Every
case has one SHA-256 in ``DIGESTS``, whatever the format's thread count, so
the pooled commands are also held to giving the same bytes at ``--threads``
1, 2 and 3. A change that means to move printed bits re-records the digests
it moves (``python tests/test_golden.py`` prints the table) and says which
ones moved and why.

The estimate data are written by Python's own generator, which gives the
same values on every platform: 20 000 uniforms on [0, 3), and the same
values times 2**512, whose squares leave the float range.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wcrte import cli

#: The versions the digests were recorded with; numpy's and the BLAS's
#: kernels fix the printed bits.
RECORDED_WITH = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"

SWEEP_MODELS = ("exp:lambda=1", "uniform:theta=1", "weibull:lambda=1,p=2", "rayleigh:sigma=1")
ESTIMATE_SPECS = (
    "wcrte:e,alpha=2", "wcrte:v,alpha=2", "wcrte:eb,alpha=2", "wcrte:n,alpha=2",
    "wcrte:l,alpha=2", "wcre:e", "wcre:v", "wcre:eb", "wcre:n", "wcre:l",
)
TESTS = ("wcrte:alpha=2", "wcre", "ks", "cvm", "ad", "ent")


def _flags(flag, values):
    return [arg for value in values for arg in (flag, value)]


#: The pooled commands, each run in CSV at --threads 1, 2 and 3 and in JSON at 2.
POOLED = {
    "mse-study": ["mse-study", *_flags("--model", SWEEP_MODELS), "--n", "10,50",
                  "--alpha", "2,1", "--m", "sweep", "--reps", "500"],
    **{f"verify-tables-{t}": ["verify-tables", "--table", str(t), "--reps", "1000"]
       for t in range(2, 9)},
    "power": ["power", *_flags("--alternative", ("alt:A,j=2", "alt:B,j=2", "alt:C,j=1.5")),
              *_flags("--test", TESTS), "--n", "10,20,30", "--reps", "1000"],
    "critical-values": ["critical-values", "--n", "10,50,20", "--reps", "1000"],
}
CV_DATA = ["critical-values", "--data", "unit.txt", *_flags("--test", TESTS), "--reps", "1000"]
ESTIMATE = ["estimate", *_flags("--estimator", ESTIMATE_SPECS)]
SINGLE = {
    "critical-values-data-csv": [*CV_DATA, "--format", "csv"],
    "critical-values-data-json": [*CV_DATA, "--format", "json"],
    "estimate": [*ESTIMATE, "--data", "sample.txt"],
    "estimate-scaled": [*ESTIMATE, "--data", "scaled.txt"],
}

DIGESTS = {
    'mse-study-csv': '48bb35969002c8b3a144d71cd6047bd215861db8808cbfe3a0f5c10716e5f919',
    'mse-study-json': '7ed7b84e4ffd93ae8696446dc84886fc2737093d3d1dcefad53d6e6bc0ef270f',
    'verify-tables-2-csv': '0ee7ab86fa04836c90eed84f1cedaa3117220b8cf1f17276ebdd3950637a2231',
    'verify-tables-2-json': '0ac51360fe11e6c20e73bfe8f6ee02bdac684cf3b91ea329018380ef1c655482',
    'verify-tables-3-csv': '524f5e12327512e3bd4a68defc10f1d737510fa6ef1de5495a0fdd57d485adad',
    'verify-tables-3-json': '5b7deb70874f968ca772e7dc124415c9c28a9761e9c813370a85042f27d689bc',
    'verify-tables-4-csv': '40718811923db224a67d5791816eb8d4f5fd864f3783cbd6955eac1bafbeaf26',
    'verify-tables-4-json': '32ea33a0731d89d25efd5833520c20ccd7cbf38a0c0cd55cc6a6086c707528a5',
    'verify-tables-5-csv': '0a3e5c91f1d1a6870a41cd39c493db7b05bd0b368764a66f38d3193ad1e7cced',
    'verify-tables-5-json': 'a9699e33fd8b011e7ddfb1d8cb26f723d9053ad309f8735a239ecfec6c9e5484',
    'verify-tables-6-csv': '8178f7ec7fedf8a4b32d430a7105596c4f0fc1abfd13b1c0ae0c21a267db4cbd',
    'verify-tables-6-json': 'e6c55b85645b7d50c3e2a63fa9de034c665ce898d0b59e1dd89d80dc7bdc6448',
    'verify-tables-7-csv': '2222cde0c1e7d235af01f0d45517c0df23025ad0489404c231111763bbaa4dde',
    'verify-tables-7-json': 'd6e2b49ad6cf262101dbc2aa32bdc57ad20f0620e43bf4955e144a1dc252f8c7',
    'verify-tables-8-csv': '79f54420f53dcbd4625d3a9e86fb0662595504db15c6e313a316f4ba61591031',
    'verify-tables-8-json': '755108d1b5edb81a5fbad88945ca61dd498cfdf1e3b4014278a45e50b67db9a9',
    'power-csv': '8ac55d37b867d87a7e29a92e9655da75d71ee2d3ee2ef53657d95201ca91403e',
    'power-json': '5431942032f58dfd4da31f42886e4711ddace4832948135f1e6337ead4eb6279',
    'critical-values-csv': '750d74fd82b378300f8ac43ee2d445c2f8d1a717b66eb9c34be95847bd307561',
    'critical-values-json': '22bbb2ef0b471dc9dd98826e6a9adad660c437b77643abcdd3af7128cd0e2721',
    'critical-values-data-csv': '0b66565728ffb6c4f6de8fb292fdcf57991df121411e07cbdb385b1e2e40dd3d',
    'critical-values-data-json': '2b09438bb3d00d2126daf8a54b4f40affd8cd18eec53749c6a9f986167cfea42',
    'estimate': '23f323475ee23b94a48ca02b49ef4a1b4ffaac85842218abf672293976ae5606',
    'estimate-scaled': '6b38c254cddf1dfa7561587c20b84d6a165ff5a2ea82fe2e1ff16273b4b95d64',
}


def _write_data(directory) -> None:
    rng = random.Random(20260)
    values = [3.0 * rng.random() for _ in range(20_000)]
    (directory / "sample.txt").write_text("".join(f"{v!r}\n" for v in values))
    (directory / "scaled.txt").write_text("".join(f"{v * 2.0**512!r}\n" for v in values))
    (directory / "unit.txt").write_text("".join(f"{rng.random()!r}\n" for _ in range(30)))


def _digest(argv) -> str:
    """SHA-256 of the exit code, stdout and stderr of ``wcrte argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # the layout of numpy's build record is not an API
        return "an unknown BLAS"


#: (test id, digest key, arguments) of every run.
CASES = [(f"{name}-{fmt}-threads{threads}", f"{name}-{fmt}",
          [*argv, "--format", fmt, "--threads", str(threads)])
         for name, argv in POOLED.items()
         for fmt, thread_counts in (("csv", (1, 2, 3)), ("json", (2,)))
         for threads in thread_counts]
CASES += [(name, name, argv) for name, argv in SINGLE.items()]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_data(directory)
    return directory


@pytest.mark.parametrize("key, argv", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_printed_bytes_match_the_recorded_digest(key, argv, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir)
    assert _digest(argv) == DIGESTS[key], (
        f"{key}: the bytes of `wcrte {' '.join(argv)}` differ from its digest, recorded "
        f"with {RECORDED_WITH}; this is numpy {np.__version__} with {_blas()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_data(Path(tmp))
        os.chdir(tmp)
        table = {}
        for _, key, argv in CASES:
            digest = _digest(argv)
            if table.setdefault(key, digest) != digest:
                sys.exit(f"{key}: the thread counts print different bytes")
        print("".join(f"    {key!r}: {digest!r},\n" for key, digest in table.items()), end="")
