"""Golden CLI outputs: the sha256 of stdout, the exit code and the sha256 of
every written file for a small fixed matrix of commands.

The digests were recorded before the indexed-graph refactor of `core`,
`oracles`, `spectral` and `constructions`; the `distance` and
`reduce-3partition` rows before the zero-partition DP was rewritten; and the
CSR(3,1), CSR(2,6), CSR(6,3), `aut`, `clique`, `dominating-set` and
`hamiltonian-cycle` rows before the CSR character-sum spectrum was replaced
by its closed form; and the `aut --oracle` rows and the `--oracle all` rows
on SR(4,5) and CSR(4,4) before the automorphism count and the colouring
search were rewritten; and the `coloring --family sr -m 3 -n 4` and
`independent-set` rows on SR(4,3) and CSR(3,2) before the residue colouring
and the residue independent sets were made one result; and the
`hamiltonian-cycle` rows on SR(3,12), SR(2,11) and SR(6,1) before the cycle
was built, checked and written as one array; and the `--conjectured`
`dominating-set` rows before the exact-gamma comparison moved from
`constructions` into the CLI; and the `dominating-set` rows on SR(5,4),
SR(3,0) and SR(6,3) before its witness check became one array pass; and
the `aut -m 3 -n 3` descriptor dump before the descriptors became plain
tuples; and the `analyze --json` rows with oracles or over the eigensolver
cap before the report was built from one quantity table.  The `analyze
--family csr -m 6 -n 3` row was re-recorded under one BLAS thread.  So
any change in what those commands print or write shows up here.  The
distance queries are chosen so that several optimal blocks tie, which pins
the witness tie-break.  Re-record only for an
intended change of output, by running this file with GOLDEN_PRINT set to 1
(and pytest's -s) and pasting the printed rows.  The `analyze` lines print
the dense eigensolver's deviation from integers, so their digests hold for
the numpy/LAPACK build they were recorded with, and for one BLAS thread: the
repository's `conftest.py` sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads, as rookbench does for its children.
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
    (  # p = 3 < n + 1: an improper SR colouring, reported with its first clash
        "construct coloring --family sr -m 3 -n 4 --prime 3",
        0,
        "9c9a59099da680f7a7ead27ad3a976795be1229e98db4b7b9fa812b3784e28be",
        {},
    ),
    (
        "construct coloring --family sr -m 3 -n 4 --prime 3 --strict",
        3,
        "9c9a59099da680f7a7ead27ad3a976795be1229e98db4b7b9fa812b3784e28be",
        {},
    ),
    (
        "construct independent-set --family sr -m 4 -n 3",
        0,
        "4c6c3818ba7dd3b0b1c0a131372186fa0cfa8538b785b0866ed5b9c6e148c30b",
        {},
    ),
    (
        "construct independent-set --family csr -m 3 -n 2 --prime 3",
        0,
        "abd268daa86f2579f84d8b15f4b8220edfdc88d5d3926f0c747932584b0920b9",
        {},
    ),
    (
        "analyze --family csr -m 3 -n 1",
        0,
        "4af41a689b6c031e79c89c62b2dec892eb430909f93276dd1a1ac231ad2221a6",
        {},
    ),
    (
        "analyze --family csr -m 2 -n 6",
        0,
        "2ea9d75ab73b1b4fe467b5f6cbc72542633162f728246da93f18215961e0cc3a",
        {},
    ),
    (
        "analyze --family csr -m 6 -n 3 --json report.json",
        0,
        "b19cb7ea1c2bcdff018a24ff64f07224eceec7b6f50dc1ea5ec9a9336eaa5e27",
        {
            "report.json": "629bdd62fcd5fe83e5e465dec0658f6e16d096522685a4ec530c8978a0d920fb",
        },
    ),
    (
        "aut -m 4 -n 3 --count-only",
        0,
        "147158cfaa71f420f4598da60400de311fbe65c9d315b7e0e34f3b953f24ef7b",
        {},
    ),
    (
        "aut -m 3 -n 3",
        0,
        "85b0204866b39b33df5fcf6c4eac59e146f68af80939b36e01df5ade42a99dfc",
        {},
    ),
    (
        "aut -m 4 -n 3 --count-only --oracle",
        0,
        "63c670dfe918323b18e113cf81b7fce07101db93249c144b0529f837ec639266",
        {},
    ),
    (
        "aut -m 3 -n 6 --count-only --oracle",
        0,
        "ffe29990236518f652d405120762b1edd8f421ad3c0cbe7d10a66af52fc216f4",
        {},
    ),
    (
        "analyze --family sr -m 4 -n 5 --oracle all",
        0,
        "120601590989c6b2074ebec7224f6d039ca8737f46d60bba4080673ab198d7cf",
        {},
    ),
    (
        "analyze --family csr -m 4 -n 4 --oracle all",
        0,
        "338835032e908dd4d0a9dff64d3dafb6b7fcdc7e7c9858cf0b7a0903fd15882c",
        {},
    ),
    (  # oracle values in the JSON, with the chi discrepancy
        "analyze --family csr -m 4 -n 4 --oracle all --json report.json",
        0,
        "338835032e908dd4d0a9dff64d3dafb6b7fcdc7e7c9858cf0b7a0903fd15882c",
        {
            "report.json": "82f973d65b1342a80de16d09383c8c2fb7906e47c1aaec77714de33b8e9661da",
        },
    ),
    (  # a partial oracle selection
        "analyze --family sr -m 3 -n 6 --oracle gamma,diameter --json report.json",
        0,
        "a4b8cf3027eb0d9a2641bdc5a170118229dca831e578c60e2117e53ce210a69a",
        {
            "report.json": "257b58588370ec060d718ee5679e4148b542d633e63e18a5292367895002c4ae",
        },
    ),
    (  # over the eigensolver cap
        "analyze --family sr -m 7 -n 9 --json report.json",
        0,
        "99bce0aabf134af1ef25c045d1ef2a28aaa70a0f37e92fa2fdf715b671194dec",
        {
            "report.json": "c9ce093587ebbc997bdc49e86f8996832a9706033fdda81d2cd0c8c92fa613db",
        },
    ),
    (
        "analyze --family csr -m 7 -n 4 --json report.json",
        0,
        "9de20c8a2e318def52011083709397c3e5328e06b807dc336cde011777f8cb64",
        {
            "report.json": "bc3b12e172eb7005bd2cba507b2cee3ec0a7e18e8454663e325b7c0bd324d1b9",
        },
    ),
    (
        "construct clique --family csr -m 5 -n 3",
        0,
        "794feaa9cd3886aa8aab11c527c94c39f2e4ad5f4839d995f44da8619070e3ad",
        {},
    ),
    (
        "construct dominating-set -m 4 -n 3",
        0,
        "2e673cca75eb4a6c13f7ebcd9486f93418d8582321b01b95c7fe432769b20c88",
        {},
    ),
    (
        "construct dominating-set -m 5 -n 4",
        0,
        "f5bf10f37d15a964968d95b5c5be91df2a131ab4173975466de8966086be5235",
        {},
    ),
    (  # n == 0: the single vertex dominates itself
        "construct dominating-set -m 3 -n 0",
        0,
        "87747a73bac7798c787e4cfa18e60170429a56041986a11c29d741c4c4988137",
        {},
    ),
    (
        "construct dominating-set -m 6 -n 3 --oracle",
        0,
        "2f7d5f00b5fc19c3cb40c62f54eabc933704385f1512ccbb4491d6b7d7a67a4d",
        {},
    ),
    (  # the diagonal set misses gamma: 4 against 3
        "construct dominating-set -m 3 -n 6 --conjectured --oracle --strict",
        3,
        "9dd9364aa20e9954f038022893b9b0c68d3223e879964ed9101d61e884713e36",
        {},
    ),
    (
        "construct dominating-set -m 3 -n 4 --conjectured --oracle",
        0,
        "42d8e0edbbfcd0a602cd9c69381c14dc40af287be6b3c06447e430a3d63a5346",
        {},
    ),
    (
        "construct dominating-set -m 3 -n 7 --conjectured",
        0,
        "129268cdd9debb3b35d7f07c313e3d33c00fa418ce5b9f1e5d7145d7733a9327",
        {},
    ),
    (
        "construct hamiltonian-cycle -m 4 -n 3 --out cycle.txt",
        0,
        "ec3165b7c2b173e1f9b2dce6c83721801173e8aa2315c664d673bc75b1db8f52",
        {
            "cycle.txt": "450208e73390a3d8a07ead83fa2210dbf2fdeb2495a030f4d7e4366cc0175a7e",
        },
    ),
    (  # two-digit coordinates
        "construct hamiltonian-cycle -m 3 -n 12 --out cycle.txt",
        0,
        "c325c0839e2e17b249231f78efa2f4fd2b6447f021e56b08f63ace7c2236d2c1",
        {
            "cycle.txt": "3b4a3593b2fe866948de0cd4c5a9f705d8c1e65a7edf0c427af8505d1f146da5",
        },
    ),
    (  # m == 2: the complete graph K_{n+1}
        "construct hamiltonian-cycle -m 2 -n 11 --out cycle.txt",
        0,
        "392c50ff32ffab6273e698543e5b758ebac1a6f339208325bbb829e362a80f8a",
        {
            "cycle.txt": "db9d5062773c1f230752d42e5d720c49bc8fac4160be64f0dbf44337092d76d9",
        },
    ),
    (  # n == 1: the unit vectors, the complete graph K_m
        "construct hamiltonian-cycle -m 6 -n 1 --out cycle.txt",
        0,
        "52313c771cc68067a93acb4b52c46c8ffb277bf47ab797202c1e53493384247b",
        {
            "cycle.txt": "1d590c5ecb907136c7f267e9f7ad815c1c691627f3c44808f90f6acbab615e6f",
        },
    ),
    (
        "distance --family csr -m 8 -n 2 --from 1,1,1,0,0,0,1,0 --to 0,0,0,1,1,1,0,1",
        0,
        "e3ffe3f24e9b91294b49e81bd69d0939de65f37cd53a9d47056d08eb2173acfb",
        {},
    ),
    (
        "distance --family csr -m 10 -n 4 --from 3,1,1,0,2,0,0,3,0,2 --to 2,1,0,0,2,2,3,2,3,1",
        0,
        "fb89264ab4b00a9bfe5c32f591cdecb119c9b92fc9f7a2ac9719fecc77b6c1d4",
        {},
    ),
    (
        "distance --family csr -m 12 -n 9 --from 7,0,4,7,3,0,3,0,8,6,2,5"
        " --to 2,8,7,6,2,4,2,8,3,6,6,0",
        0,
        "3d6586663217d76e0cce89dc382b0dd3b5bedba8c627148efbb16631c6b42f17",
        {},
    ),
    (
        "distance --family csr -m 14 -n 11 --from 3,2,9,1,3,4,2,8,4,6,4,0,7,2"
        " --to 2,7,8,0,3,3,1,8,4,5,3,10,6,6",
        0,
        "2ef3f7000058371b30828bd72da835829ca029d341dbb64e312e2606cae38f86",
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


# 3-Partition instance file ('k s' then the 3k values), expected exit code,
# sha256 of the stdout of `reduce-3partition --instance` on it
GOLDEN_REDUCE = [
    (  # yes-instance
        "4 40\n14 12 12 17 13 17 15 12 11 15 11 11\n",
        0,
        "af10fa8a0c775e528f291c9c12f07e76b3a914c5897933f3f57042c607bb0b64",
    ),
    (  # no-instance
        "4 40\n19 14 11 11 11 15 15 17 11 11 12 13\n",
        0,
        "802eaf8b050ae7c0e0f84f81efbc742fd116fc3b03bfece4745a42a0c1e4564d",
    ),
]


@pytest.mark.parametrize("instance,code,stdout", GOLDEN_REDUCE, ids=["yes-k4", "no-k4"])
def test_golden_reduce(instance, code, stdout, tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_text(instance)
    got_code = main(["reduce-3partition", "--instance", str(path)])
    got_stdout = _sha256(capsys.readouterr().out.encode())
    if os.environ.get("GOLDEN_PRINT") == "1":
        print(f"\n    ({instance!r}, {got_code}, {got_stdout!r}),")
        return
    assert (got_code, got_stdout) == (code, stdout)
