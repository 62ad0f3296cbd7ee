"""Golden CLI outputs: the sha256 of stdout, the exit code and the sha256 of
every written file for a small fixed matrix of commands.

The digests were recorded before the indexed-graph refactor of `core`,
`oracles`, `spectral` and `constructions`, so any change in what those
commands print or write shows up here.  Re-record only for an intended
change of output, by running this file with GOLDEN_PRINT set to 1 (and
pytest's -s) and pasting the printed rows.  The `analyze` lines print the
dense eigensolver's deviation from integers, so their digests hold for the
numpy/LAPACK build they were recorded with.
"""

import hashlib
import os

import pytest

from rooklab.cli import main

# argv, expected exit code, sha256 of stdout, {written file: sha256}
GOLDEN = [
    (
        "generate --family sr -m 3 -n 3",
        0,
        "469d3d85ed1bfea5dcee7ca57dc974cd30447665b150ca11678d28e46c73dd6c",
        {},
    ),
    (
        "generate --family csr -m 4 -n 3 --edges-out edges.txt",
        0,
        "775b5f6f8eb0f636cde31f8aa9e97a38cf0c94fa83ab99ffde91dfd5e30a72ec",
        {
            "edges.txt": "46703289ce24e276cc2b139b1eaf23c2e7b317e4d2523ad5a64e3a8d7ee6d90d",
        },
    ),
    (
        "analyze --family sr -m 1 -n 0",
        0,
        "b02cf3b52efa0a345743b442f001d7ed9798a0e14d4240f4d69440cb7129175f",
        {},
    ),
    (
        "analyze --family sr -m 2 -n 3",
        0,
        "2f13c986c81ade6e60bab059d407254771e2a1cec99d754f622384764cab4a14",
        {},
    ),
    (
        "analyze --family sr -m 4 -n 5 --json report.json",
        0,
        "34394a4508436d8d5cc7ebcc6f753bedc8094589dceba9c34ed0340efe143e1c",
        {
            "report.json": "a611672c80159cfeb899fbdc23bf884590b7f0f4738fecbe0096a362d4620284",
        },
    ),
    (
        "analyze --family csr -m 1 -n 1",
        0,
        "ed4207912ad77efae7674b1af0f0bbca319d3bb6ca2c104c34f6e48d87923309",
        {},
    ),
    (
        "analyze --family csr -m 4 -n 5 --json report.json",
        0,
        "cdb2af578180c0a8380fa6c6130b7e3232b4d365f7a16c4fca872a2503cb2cb1",
        {
            "report.json": "a4f7b6d48c82558a008e910211ac517ae101a138fb62c585d3fc4d3c9dbb8f36",
        },
    ),
    (
        "analyze --family csr -m 5 -n 2",
        0,
        "70bcff5c34258822b1a3223ddb62d1d8829bb132ede9fd9e90c5fc658596bf34",
        {},
    ),
    (
        "analyze --family csr -m 3 -n 2 --strict",
        3,
        "03c8528bf7c3b2332e14b34a1b97ca3485526ce9dd66c261cce1cb7dc1f714f7",
        {},
    ),
    (
        "analyze --family sr -m 3 -n 4 --oracle all",
        0,
        "f9e5a5f2890573ea64f143a4ecec2900b1bdf19a18262b9d96139fb1d9dff873",
        {},
    ),
    (
        "analyze --family csr -m 3 -n 4 --oracle all",
        0,
        "6f24c5fe364eda41ac5d435d3efdc0cf01f89965f1abac947b239c3088e737e1",
        {},
    ),
    (
        "construct coloring --family csr -m 3 -n 2",
        0,
        "a8a21558723a312219184cc279e8460b7a791acb1f0e6a63e24344dab4cd2e71",
        {},
    ),
    (
        "construct coloring --family csr -m 4 -n 3",
        0,
        "ff25f214b015fc475c093eae7e988ecc23fe178ac3f3fea458ae38801efe1636",
        {},
    ),
    (
        "construct independent-set --family csr -m 4 -n 4 --prime 5",
        0,
        "37b3c92c53cc46c1e810226120b9e3f43a410ffe491ea725b0ca9a8a14590530",
        {},
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv,code,stdout,files", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(argv, code, stdout, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got_code = main(argv.split())
    got_stdout = _sha256(capsys.readouterr().out.encode())
    got_files = {name: _sha256((tmp_path / name).read_bytes()) for name in files}
    if os.environ.get("GOLDEN_PRINT") == "1":
        print(f"\n    ({argv!r}, {got_code}, {got_stdout!r}, {got_files!r}),")
        return
    assert (got_code, got_stdout, got_files) == (code, stdout, files)
