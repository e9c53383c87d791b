"""Golden outputs: SHA-256 digests of whole CLI runs.

Each case runs one or two commands on one input and hashes, per command,
the exit code and stdout (with the temporary directory replaced by a fixed
token), then every file the commands wrote.  The digests pin the claim
that reports, weight files and figures are byte-identical from version to
version; a change that alters any of them must update the table and say
why.  The icosidodecahedral outputs are pinned in test_cli.py, next to the
tests that already solve it.
"""

import hashlib
import random

import pytest

from arrlab.arrangement import builtin, cone, serialize_arrangement
from arrlab.cli import main
from arrlab.poset import IntPolynomial, poincare_polynomial

from oracles import (
    essential_random_line_arrangement,
    golden_line_arrangement,
    large_seeded_inputs,
)


def _seeded_inputs():
    rational = essential_random_line_arrangement(random.Random(2019), 6)
    return {
        "rational": rational,
        "golden": golden_line_arrangement(random.Random(5), 5),
        "cone": cone(rational),
    }


BUILTINS = ("generic3", "boolean2", "boolean3")
INPUTS = BUILTINS + tuple(_seeded_inputs())

# case name -> commands; {ref} is the input, {out} the output directory
CASES = {
    "analyze": [["analyze", "{ref}"]],
    "poset": [["poset", "{ref}", "--mobius"]],
    "gamma": [["gamma", "{ref}"]],
    "factor": [["factor", "{ref}"]],
    "constraints": [["falk", "constraints", "{ref}"]],
    "solve": [["falk", "solve", "{ref}", "-o", "{out}/w.txt"]],
    "solve-eq-min": [["falk", "solve", "{ref}", "--equality-asphericity",
                      "--minimize-total"]],
    "render": [["render", "{ref}", "-o", "{out}/a.svg", "--gamma"]],
    "render-weights": [["falk", "solve", "{ref}", "-o", "{out}/w.txt"],
                       ["render", "{ref}", "-o", "{out}/a.svg", "--gamma",
                        "--weights", "{out}/w.txt"]],
}

GOLDEN_DIGESTS = {
    "analyze/generic3":
        "ea16cc036fb49d622b43130fecd191cf8cb011fdb0c89bbc84ff80ae4ff5a6a6",
    "analyze/boolean2":
        "c2ecc01815d8b4f01bbc046532c222a168708295386fee14dbeb968dd1e385bc",
    "analyze/boolean3":
        "fd5743b7ef67358848908a39778794ae3ed27768a51b281568529182013d2133",
    "analyze/rational":
        "eb24857e7ba4582a2cc8a68a488ac9056ab5e38f22d3899f7de18e6f800fe81d",
    "analyze/golden":
        "f214276a0df16c044dc7fa93d1c615eb25b8b80c1e48e9cc2c1668bc2e5aeb0b",
    "analyze/cone":
        "dbf5ed66ddded410cb8b3834abe3679e5002b5574c9d37c729a764ed4f79e906",
    "poset/generic3":
        "e9bf36dae05b81df7cd820f4d80be6275203d32309605700dd4d049c34bb4d89",
    "poset/boolean2":
        "840eb37dbfd13d1b5acd84a60925cf15561a0fdcf552d2af3c2c09441e964e30",
    "poset/boolean3":
        "c7033a076cbaa8225428fed5f725bf1d45a404eb63a992db02ae747595a95720",
    "poset/rational":
        "d6a235084fe7cd56b6ef8b1b478c78b6699632c44b45b6dde1903615c0015593",
    "poset/golden":
        "7c8f479544b91a4e3e60bb0ad9c77194fbecc90479443bb7d17658d6d73317fd",
    "poset/cone":
        "75569ac87fe7f37d047893ea37750049fa25a1d56d3f797c4a6b7640e0993cae",
    "gamma/generic3":
        "711ff817250db414fc347258b5472b545c4d903d1c4128e1764b2a53d2d31c0e",
    "gamma/boolean2":
        "6131eb48940aff2ec980a689ef563c0df48f63d14b9ff566c3f8d92b40d1f557",
    "gamma/boolean3":
        "6131eb48940aff2ec980a689ef563c0df48f63d14b9ff566c3f8d92b40d1f557",
    "gamma/rational":
        "a9db4e94f5ff5631d7727785835ffdbcec9595e2170fe42efc35c72d8e8a60eb",
    "gamma/golden":
        "1fb11c700b34e09cb1f5878df06de41c64ce381615f06bdfe7905a4d95e64f28",
    "gamma/cone":
        "13444a7f37164744c09b18867ae4a7aaab2539eecf7188cd868344e3e6744e0d",
    "factor/generic3":
        "eb4817c5272461ae500c27b147a52f5b2c84e44a673441bf60e1a6815618d85c",
    "factor/boolean2":
        "d4b818012619820718878861b472e3f6af7db45f1f8a4e95ee82c8f9aa78921a",
    "factor/boolean3":
        "d4b818012619820718878861b472e3f6af7db45f1f8a4e95ee82c8f9aa78921a",
    "factor/rational":
        "eb62fe4906fae447a2a5542e3664481308ba7d13593e9fd1245d3cafefdefd7c",
    "factor/golden":
        "e42498b5e30f7c5fe08b758ea30f000a0ad565663d3377eea471f3c72ad334e0",
    "factor/cone":
        "1cf0e2898609f3dabea7c052d44ffef8655f6a1084d1063538f98d14213f251f",
    "constraints/generic3":
        "20f2554d01f1e1c0bc8491076b9c556dd76f9e23dde22eafddea5697296c3ebf",
    "constraints/boolean2":
        "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "constraints/boolean3":
        "28d3b9e880a77975493dc7e359144c0295a4f694cfe0af4f928c22307bc5c320",
    "constraints/rational":
        "164ffae117394abf8966c1d6122adeedf1fb9ba44528dfe254f9fad3bb3750cd",
    "constraints/golden":
        "f4c45dfd351c770f5b63d7d2e80aa9761deb8a7fb24e840cc6014772cae59e47",
    "constraints/cone":
        "9cfc6467d0212551ca4bf20997cc7ba2db0ef7538eb1c40d90fa6557733b1e9b",
    "solve/generic3":
        "a6130c5dbefe43a8236be679819f386abe7b7333b940d74fc4b91d35cc8a4334",
    "solve/boolean2":
        "6f1d34bbfbb5f33531f6be5e9bd1b135a6f5bb28457a91810e6b0a130f113f00",
    "solve/boolean3":
        "6f1d34bbfbb5f33531f6be5e9bd1b135a6f5bb28457a91810e6b0a130f113f00",
    "solve/rational":
        "7afe8ca8a04dccf5051c794341dc78e272a132816c0c61e8d29395705424d4d8",
    "solve/golden":
        "353bc5ae85c428326c1c97a6d5db84cf41f7da84b5be0476f5c4efeb67d3a65d",
    "solve/cone":
        "1c01115304ba23655b46cc6c08ad9fa260ea9e37e8304e7153229eed658802ea",
    # the CLI solves over the symmetry orbits: 1/3 on each triangle corner
    "solve-eq-min/generic3":
        "a0833573caaef006f15564558333f0838cf036cd3657c67eab71120ec5c6ce14",
    "solve-eq-min/boolean2":
        "1d4e76faeff9105a1a7b56a6273ea69a0cd0d364b7cc546b0fc6d3a234e91d58",
    "solve-eq-min/boolean3":
        "1d4e76faeff9105a1a7b56a6273ea69a0cd0d364b7cc546b0fc6d3a234e91d58",
    "solve-eq-min/rational":
        "a3a711dff973773df63aefc59c59072a5076015f2180964061b9892dd9328b06",
    "solve-eq-min/golden":
        "287abbb7571da675bc07b85c9647c0319e1fe663151452aaf2af68675e6ff3dd",
    "solve-eq-min/cone":
        "5c1c9c880abed810750625d5f3114a94319ad1df8bf7ac4915001a9792515e86",
    "render/generic3":
        "56e00a7575d7f7b49725ec8f2dfe2a81e9fc4847923cc0f5adada5f96b567955",
    "render/boolean2":
        "f479e70ad660e969888395d19ad96706e8fcaad7b7983e9e936394742ec7eeb2",
    "render/boolean3":
        "05582e86fd55da080476343b77f1d34198210d87956ef57dea55e8f4a387f2b4",
    "render/rational":
        "95cd4f38bec62e219920cdba55d6692ea2f45210eb61fc06f6b8b9ebf6b0996a",
    "render/golden":
        "7d2326d24d089752e60e0e05d5a59e2fffaef6a6591f5d834d21bfeb5e4f79a2",
    "render/cone":
        "bfeeb03cf782b4288d738a296f860fe151a62ee7f2efbd4df7470f39f8b552ff",
    "render-weights/generic3":
        "b4c7a76121f15fc1aa32b799b2f513e3829818d371906ae609f14e20d3ad2899",
    "render-weights/boolean2":
        "b2d60b8c529a68fcc67a55ff8e32172b27419f01423b4742b926a218b12536c2",
    "render-weights/boolean3":
        "b8f7410c2f8699d6cda6486bfdcd43bef8ddd6f90c06083f65e1721eb452c456",
    "render-weights/rational":
        "1385612ff414ee79378d71b6b755bc17fd7b8127164e7530eb6dab875bd20d43",
    "render-weights/golden":
        "7121d45ce26ca1e3d94fec2ec58c007921c93ab2f4e92f3fbbdddb587e05bde3",
    "render-weights/cone":
        "5df826ada02ceb149c7bcb9ac25b0037ef516f4ee37dbbe33fd4ae2f354424e1",
}


def run_commands(commands, ref, tmp_path, capsys):
    """SHA-256 over each command's exit code and stdout, then the files
    written to {out}."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    digest = hashlib.sha256()
    for argv in commands:
        code = main([a.format(ref=ref, out=out_dir) for a in argv])
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        digest.update(f"exit {code}\n{stdout}".encode("utf-8"))
    for path in sorted(out_dir.iterdir()):
        digest.update(f"file {path.name}\n".encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_input(arr, name, tmp_path):
    ref = tmp_path / f"{name}.txt"
    ref.write_text(serialize_arrangement(arr), encoding="utf-8")
    return str(ref)


def run_case(case, name, tmp_path, capsys):
    if name in BUILTINS:
        ref = "@" + name
    else:
        ref = _write_input(_seeded_inputs()[name], name, tmp_path)
    return run_commands(CASES[case], ref, tmp_path, capsys)


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, name, tmp_path, capsys):
    assert run_case(case, name, tmp_path, capsys) == \
        GOLDEN_DIGESTS[f"{case}/{name}"]


# the reflection arrangements: exponents (pi = product of (1 + e t)) and
# the digest of the analyze report.  In Q(sqrt5) syntax -phi is
# -1/2~-1/2, while -1/2~1/2 is 1/phi; that slip turns H3 into an
# arrangement with pi = 1 + 15t + 87t^2 + 73t^3.
REFLECTION_ANALYZE = {
    "A3": ((1, 2, 3),
           "f43773dd14281213626d77ec1fc3bc4abbd24c4793fd051bbb6bd9de5599c4de"),
    "B3": ((1, 3, 5),
           "8f84de7d9e0c7329047201cd0ecea88cb11bddf14a3e928d0b3fdaf4f402443a"),
    "H3": ((1, 5, 9),
           "96a050434518053393b9f4c6c84ab272730306dbaa4c90125308f73f5c7bba4f"),
}


@pytest.mark.parametrize("name", REFLECTION_ANALYZE)
def test_reflection_arrangement_analyze(name, capsys):
    exponents, digest = REFLECTION_ANALYZE[name]
    pi = IntPolynomial((1,))
    for e in exponents:
        pi = pi * IntPolynomial((1, e))
    assert poincare_polynomial(builtin(name)) == pi
    assert main(["analyze", "@" + name]) == 0
    out = capsys.readouterr().out
    split = ",".join(map(str, exponents))
    for line in (f"integer_split: {{{split}}}", "simplicial: true",
                 "falk: FEASIBLE"):
        assert line in out.splitlines()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# falk constraints on seeded 24-line inputs: unlike the small inputs above,
# these print variable indices in the hundreds (747-942 corners)
LARGE_CONSTRAINT_DIGESTS = {
    "rational24":
        "5270a13fcb0c17c2281bd6570970feee39f0762d86d6314cb5d81787ed44c58c",
    "golden24":
        "2358e19906a23059673b4e1f4b2dcf468d9569ce9ffd80f2ea6aa21877ed40f3",
    "cone24":
        "444b097a3f24f8cf0a074e967c617252069f8619006b0886e97e25facf682c8f",
}


@pytest.mark.parametrize("name", LARGE_CONSTRAINT_DIGESTS)
def test_large_constraint_output(name, tmp_path, capsys):
    ref = _write_input(large_seeded_inputs()[name], name, tmp_path)
    assert main(["falk", "constraints", ref]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        LARGE_CONSTRAINT_DIGESTS[name]



def _large_geometry_inputs():
    inputs = large_seeded_inputs()
    inputs["goldencone24"] = cone(inputs["golden24"])
    return inputs


# the geometry commands on the seeded 24-line inputs over Q and Q(sqrt5)
# and their cones: the crossing order, the cell complex and the SVG
# decimals of large inputs of either field
LARGE_GOLDEN_CASES = {
    "poset": ["poset", "{ref}", "--mobius"],
    "factor": ["factor", "{ref}"],
    "gamma": ["gamma", "{ref}"],
    "render": ["render", "{ref}", "-o", "{out}/a.svg", "--gamma"],
}

LARGE_GOLDEN_DIGESTS = {
    "poset/golden24":
        "9c7a329ef46f382f12f06f23f403037c70001fc12048b7e04a74fb1495a6dd1d",
    "factor/golden24":
        "d474a9d5ce5cb635ada58d371941897e2bf5ba23b802b10f5b8f1b2b3795f99c",
    "gamma/golden24":
        "57811b40a24712f20d85794fbe9e487c970898124d68ac6ae315b5cc8fbaf2ea",
    "render/golden24":
        "e355bd6529e87eedfc5b0a9f8af7b7ad5c7fabfa043c520a7e9962397ff38181",
    "poset/goldencone24":
        "a0691bee322e353b420fcc22d00d3f8221b2516bc8265f537beeac0cc3529a26",
    "factor/goldencone24":
        "d3f0447fbc5787a79409b69e2b807820f88d7ca956193244338f924cf7556d91",
    "gamma/goldencone24":
        "1e8e6ce0b628ffeba7fe54122cae01f5e7552f983f9e4e2eb1e3c6127f5168aa",
    "render/goldencone24":
        "cd950eab7d8bbf4371cc3587a8f54d6220600be23fbb8276428672203c1a0a55",
    "poset/rational24":
        "5ebc11f89bfb46be2a7b2c9a48df96875402b1c2ac6d077a5a1131ab24f5e36e",
    "factor/rational24":
        "5bcde0200e3426e072fc2af9ba0ad4b1dc6d6ec521c0d9db40d59363776597c1",
    "gamma/rational24":
        "0285e72ff7c3e4cd4b79e7b4c49a49f0dca0ddc42e882ce73f75349ba4d1921a",
    "render/rational24":
        "555c35652e9b503a0ed387f199c3ca33ff6b9a95ceb734ad8d5e9c4e51461741",
    "poset/cone24":
        "4c17cc65a3469c86b93018e5d79fde636139c7c972a8eb8a0e32023f7dd45494",
    "factor/cone24":
        "a8e09ce42e3e19fb117f8dbd525430ce2a993eb9e2e291d2d356089c7b1e191d",
    "gamma/cone24":
        "46f496760c49f5ade8a459b1eb840af31e19dee99eb6bf44e79340cdb2150600",
    "render/cone24":
        "bece5ff07f5b2eea342bab0e1fcb386b9cafaedc09b1e3fb1c540e71fec9a476",
}


@pytest.mark.parametrize("name", ("golden24", "goldencone24", "rational24",
                                  "cone24"))
@pytest.mark.parametrize("case", LARGE_GOLDEN_CASES)
def test_large_golden_output(case, name, tmp_path, capsys):
    ref = _write_input(_large_geometry_inputs()[name], name, tmp_path)
    assert run_commands([LARGE_GOLDEN_CASES[case]], ref, tmp_path,
                        capsys) == LARGE_GOLDEN_DIGESTS[f"{case}/{name}"]


# a golden line file with coefficients up to 10^400: its crossing points
# lie 10^-400 apart and its SVG coordinates run to 400 digits, far past
# the range and resolution of a float
_E = 10 ** 400
HUGE_LINES = ("1 0 0", "0 1 0", "1 1 1", f"1 -1 1/{_E}", f"{_E} 1 {_E}~1",
              f"1 0~1 0~1/{_E}", f"1 1/{_E} 0", f"0~1 1 {_E}/3~-{_E}")

HUGE_DIGESTS = {
    "poset":
        "f3bc81f5492888e44f40a9a2a285d4e59debc90766bff3c54240e97ad3086de0",
    "gamma":
        "3e410500e4afaf079b7fd0dd44e981640c1c6713089d6c93891eaed3c274e2d6",
    "render":
        "34c33cd8b182f969529dd5a8fba772431268347a787ad230e762c8381c083983",
}


@pytest.mark.parametrize("case", HUGE_DIGESTS)
def test_huge_coefficient_output(case, tmp_path, capsys):
    ref = tmp_path / "huge.txt"
    ref.write_text("field golden\n" + "".join(f"line {row}\n"
                                              for row in HUGE_LINES),
                   encoding="utf-8")
    assert run_commands([LARGE_GOLDEN_CASES[case]], str(ref), tmp_path,
                        capsys) == HUGE_DIGESTS[case]
