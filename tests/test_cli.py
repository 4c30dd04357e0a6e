"""Command-line behavior: exit codes, report content, and determinism."""

import itertools
import json
import pathlib
import subprocess
import sys

import pytest

from rupture_kit.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(*args):
    """Run the CLI in-process, capturing stdout and the exit code."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in args])
    return code, buf.getvalue()


# A coherent 2-simplex filling a gap-witnessed horn.
EXCLUSION_CONFLICT = {
    "format": "rupture-kit/1",
    "kind": "ruptured",
    "dim_bound": 2,
    "simplices": {"0": 3, "1": 3, "2": 1},
    "faces": {"1": [[1, 0], [2, 0], [2, 1]], "2": [[2, 1, 0]]},
    "coh": {"0": [0, 1, 2], "1": [0, 1, 2], "2": [0]},
    "gap": [{"n": 2, "k": 1, "faces": {"0": 2, "2": 0}}],
}


class TestValidate:
    def test_valid_documents_exit_zero(self):
        for name in ("triangle.json", "triangle_kan.json", "bank.json"):
            code, out = run_cli("validate", FIXTURES / name)
            assert code == 0 and out.startswith("valid")

    def test_exclusion_conflict_exits_one(self, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(EXCLUSION_CONFLICT))
        code, out = run_cli("validate", path)
        assert code == 1
        assert out.count("exclusion") == 1

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, out = run_cli("validate", path)
        assert code == 2 and out.startswith("parse error")

    def test_missing_file_exits_two(self):
        code, out = run_cli("validate", "/no/such/file.json")
        assert code == 2

    def test_max_dim_reports_kan_status(self):
        code, out = run_cli("validate", FIXTURES / "triangle.json", "--max-dim", 2)
        assert code == 0 and "kan up to 2: yes" in out
        code, out = run_cli(
            "validate", FIXTURES / "circle3_open.json", "--max-dim", 2
        )
        assert code == 1 and "kan up to 2: no" in out
        assert "n=2 k=1" in out


class TestHorns:
    def test_kan_triangle_single_coherent_line(self):
        code, out = run_cli("horns", FIXTURES / "triangle_kan.json", "--dim", 2, "--missing", 1)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and "coherent fillers 0" in lines[0]

    def test_open_circle_three_lines(self):
        code, out = run_cli("horns", FIXTURES / "circle3_open.json", "--dim", 2, "--missing", 1)
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 3
        assert all(line.endswith("open") for line in lines)

    def test_gapped_circle_three_lines(self):
        code, out = run_cli("horns", FIXTURES / "circle3_gapped.json", "--dim", 2, "--missing", 1)
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 3
        assert all(line.endswith("gapped") for line in lines)

    def test_out_of_range_exits_one(self):
        code, out = run_cli("horns", FIXTURES / "triangle_kan.json", "--dim", 9, "--missing", 0)
        assert code == 1 and out.startswith("error")

    def test_json_mode(self):
        code, out = run_cli(
            "horns", FIXTURES / "circle3_gapped.json", "--dim", 2, "--missing", 1, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3 and all(p["state"] == "gapped" for p in payload)


class TestTransport:
    def test_bank_gapped_semantic(self):
        code, out = run_cli("transport", FIXTURES / "bank.json", "--term", 0, "--path", 0)
        assert code == 0 and out.strip() == "gapped (semantic)"

    def test_source_mismatch_exits_one(self):
        code, out = run_cli("transport", FIXTURES / "bank.json", "--term", 1, "--path", 0)
        assert code == 1 and out.startswith("error")

    def test_coherent_with_name(self):
        code, out = run_cli("transport", FIXTURES / "bottle.json", "--term", 0, "--path", 0)
        assert code == 0 and out.strip() == "coherent -> poured-volume (multiplicity 1)"


class TestMonodromy:
    def test_double_cover_report(self):
        code, out = run_cli(
            "monodromy", FIXTURES / "double_cover_3.json", FIXTURES / "monodromy_task_3.json"
        )
        assert code == 0
        assert "loop 0: permutation: (0 1)" in out
        assert "loop 1: permutation: ()" in out
        assert "gapped closures: 2" in out
        assert "at w0: gapped (monodromy)" in out
        assert "at w3: gapped (monodromy)" in out

    def test_json_payload(self):
        code, out = run_cli(
            "monodromy",
            FIXTURES / "double_cover_3.json",
            FIXTURES / "monodromy_task_3.json",
            "--json",
        )
        payload = json.loads(out)
        assert payload["loops"][0]["permutation"] == "(0 1)"
        assert len(payload["gapped_closures"]) == 2


class TestCoreProductCompose:
    def test_core_of_kan_triangle(self):
        code, out = run_cli("core", FIXTURES / "triangle_kan.json")
        assert code == 0
        assert "dim 0: 3 of 3 kept" in out

    def test_product_summary_and_json(self):
        code, out = run_cli(
            "product", FIXTURES / "circle3_gapped.json", FIXTURES / "circle3_open.json"
        )
        assert code == 0 and "product dim_bound 2" in out
        code, out = run_cli(
            "product",
            FIXTURES / "circle3_gapped.json",
            FIXTURES / "circle3_open.json",
            "--json",
        )
        assert code == 0
        from rupture_kit.documents import parse_document

        doc = parse_document(out)
        assert doc.kind == "ruptured"

    def test_compose_identity(self, tmp_path):
        # compose the bank fibration with the identity on its base
        from rupture_kit.documents import Document, load_document, serialize_document
        from rupture_kit.fibration import RupturedFibrationData
        from rupture_kit.simplicial import SimplicialMap

        bank = load_document(FIXTURES / "bank.json").body
        ident = RupturedFibrationData(
            bank.base, bank.base, SimplicialMap.identity(bank.base.underlying)
        )
        ident_path = tmp_path / "ident.json"
        ident_path.write_text(serialize_document(Document("fibration", ident)))
        code, out = run_cli("compose", FIXTURES / "bank.json", ident_path)
        assert code == 0 and "composite gap-marked problems: 1" in out


class TestDerive:
    def test_linear_horn_report(self):
        code, out = run_cli("derive", FIXTURES / "derive_linear_horn.json")
        assert code == 0
        assert "gamma: derivable (counts: x=2)" in out
        assert "delta: underivable (counts: y=2)" in out
        assert "horn: inhabited" in out

    def test_json_certificates(self):
        code, out = run_cli("derive", FIXTURES / "derive_linear_horn.json", "--json")
        payload = json.loads(out)
        assert payload["delta"]["certificate"]["counts"] == {"y": 2}
        assert payload["delta"]["certificate"]["verdicts"] == {"y": False}
        assert payload["horn"] is True


class TestJudgments:
    def test_script_replay(self):
        code, out = run_cli("judgments", FIXTURES / "judgment_script.json")
        assert code == 0
        assert "horn (w1, w2, w3)" in out
        assert "level 1 universe [w1,w2,w4]" in out

    def test_violating_script_exits_one(self, tmp_path):
        script = {
            "format": "rupture-kit/1",
            "kind": "judgment-script",
            "script": [
                {"op": "add", "judgment": {"atom": "J"}, "polarity": "coherent"},
                {"op": "add", "judgment": {"atom": "J"}, "polarity": "gapped"},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(script))
        code, out = run_cli("judgments", path)
        assert code == 1 and "rejected" in out


class TestDeterminism:
    COMMANDS = [
        ("validate", "bank.json"),
        ("horns", "circle3_gapped.json", "--dim", "2", "--missing", "1"),
        ("transport", "bank.json", "--term", "0", "--path", "0"),
        ("monodromy", "double_cover_3.json", "monodromy_task_3.json"),
        ("derive", "derive_linear_horn.json"),
        ("judgments", "judgment_script.json"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_across_processes(self, argv):
        cmd = [sys.executable, "-m", "rupture_kit"] + [
            str(FIXTURES / a) if a.endswith(".json") else a for a in argv
        ]
        first = subprocess.run(cmd, capture_output=True, cwd=FIXTURES.parent)
        second = subprocess.run(cmd, capture_output=True, cwd=FIXTURES.parent)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty report


class TestRejectedDocuments:
    """A command other than ``validate`` exits 1 on a document that
    ``validate`` rejects, naming the file and the first violation, and
    prints no answer."""

    def test_transport_on_a_map_that_breaks_face_commutation(self, tmp_path):
        doc = json.loads((FIXTURES / "crane.json").read_text())
        doc["total"]["faces"]["1"][0][0] = 2
        path = tmp_path / "crane.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("transport", path, "--term", 0, "--path", 0)
        assert code == 1
        assert out == f"error: {path} is not valid: face-commutation: f(d_0(1/0)) != d_0(f(1/0))\n"

    @pytest.mark.parametrize(
        "argv",
        [("horns", "--dim", "2", "--missing", "1"), ("core",), ("product", "@triangle_kan.json")],
        ids=lambda a: a[0],
    )
    def test_ruptured_commands_on_an_exclusion_conflict(self, tmp_path, argv):
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(EXCLUSION_CONFLICT))
        assert run_cli("validate", path)[0] == 1
        command, *rest = argv
        rest = [str(FIXTURES / a[1:]) if a.startswith("@") else a for a in rest]
        code, out = run_cli(command, path, *rest)
        assert code == 1
        assert out.startswith(f"error: {path} is not valid: exclusion: ")
        assert out.count("\n") == 1


class TestShortMap:
    def test_monodromy_on_short_edge_map_exits_two(self, tmp_path):
        doc = json.loads((FIXTURES / "double_cover_3.json").read_text())
        doc["map"]["1"] = doc["map"]["1"][:3]
        path = tmp_path / "short_map.json"
        path.write_text(json.dumps(doc))
        cmd = [
            sys.executable, "-m", "rupture_kit", "monodromy",
            str(path), str(FIXTURES / "monodromy_task_3.json"),
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, cwd=FIXTURES.parent)
        assert run.returncode == 2
        assert run.stdout.startswith("parse error: map covers 3 of 6 simplices")
        assert "(at fibration.map.1)" in run.stdout
        assert "Traceback" not in run.stdout + run.stderr


def _set(path, value):
    """A mutation of a parsed document: set the value at a key path."""

    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return mutate


def _append(value, *paths):
    """A mutation of a parsed document: append the value to the list at
    each key path."""

    def mutate(doc):
        for path in paths:
            row = doc
            for key in path:
                row = row[key]
            row.append(value)

    return mutate


class TestMissingReferences:
    """Documents that reference a simplex that does not exist, hold a
    non-list where a list of rows belongs, or have a map level that is too
    short or not a shared dimension, exit 2 with the key path."""

    CASES = [
        ("core", "triangle_kan.json", _set(["faces", "1", 0], [5, 0]), (),
         "ruptured.faces.1[0]"),
        ("horns", "triangle_kan.json", _set(["faces", "1", 0], [5, 0]),
         ("--dim", "2", "--missing", "1", "--json"), "ruptured.faces.1[0]"),
        ("product", "circle3_gapped.json", _set(["gap", 0, "faces", "1"], 7),
         ("@circle3_open.json",), "ruptured.gap[0].faces.1"),
        ("validate", "triangle_kan.json", _set(["coh", "7"], [0]), (), "ruptured.coh.7"),
        ("core", "triangle_kan.json", _set(["coh", "1"], [0, 9]), (), "ruptured.coh.1"),
        ("validate", "double_cover_3.json", _set(["gap_lifts"], 5), (),
         "fibration.gap_lifts"),
        ("validate", "double_cover_3.json", _set(["composites"], 5), (),
         "fibration.composites"),
        ("transport", "bank.json", _set(["gap_lifts", 0, "horn", "faces", "1"], 40),
         ("--term", "0", "--path", "0"), "fibration.gap_lifts[0].horn.faces.1"),
        ("monodromy", "double_cover_3.json", _set(["map", "0", 5], 7),
         ("@monodromy_task_3.json",), "fibration.map.0[5]"),
        ("validate", "double_cover_3.json", _set(["map", "0", 5], 7), (),
         "fibration.map.0[5]"),
        ("transport", "crane.json", _set(["map", "0", 2], 9), ("--term", "0", "--path", "2"),
         "fibration.map.0[2]"),
        ("validate", "crane.json", _set(["map", "0", 2], 9), (), "fibration.map.0[2]"),
        ("transport", "crane.json", _append(0, ["map", "0"]), ("--term", "0", "--path", "2"),
         "fibration.map.0[3]"),
        ("validate", "crane.json", _append(0, ["map", "0"]), (), "fibration.map.0[3]"),
        ("monodromy", "double_cover_3.json", _append(0, ["map", "0"], ["map", "1"]),
         ("@monodromy_task_3.json",), "fibration.map.0[6]"),
        ("validate", "double_cover_3.json", _append(0, ["map", "0"], ["map", "1"]), (),
         "fibration.map.0[6]"),
        ("transport", "double_cover_3.json", _set(["map", "1"], [0, 1, 2]),
         ("--term", "0", "--path", "0"), "fibration.map.1"),
        ("validate", "double_cover_3.json", _set(["map", "1"], [0, 1, 2]), (),
         "fibration.map.1"),
        ("validate", "crane.json", _set(["map", "7"], [0]), (), "fibration.map.7"),
        ("transport", "crane.json", _set(["map", "x"], 5), ("--term", "0", "--path", "0"),
         "fibration.map.x"),
    ]

    @pytest.mark.parametrize(
        "command,fixture,mutate,extra,where", CASES, ids=[f"{c[0]} {c[-1]}" for c in CASES]
    )
    def test_exits_two_naming_the_key_path(
        self, tmp_path, command, fixture, mutate, extra, where
    ):
        doc = json.loads((FIXTURES / fixture).read_text())
        mutate(doc)
        path = tmp_path / fixture
        path.write_text(json.dumps(doc))
        rest = [str(FIXTURES / a[1:]) if a.startswith("@") else a for a in extra]
        cmd = [sys.executable, "-m", "rupture_kit", command, str(path), *rest]
        run = subprocess.run(cmd, capture_output=True, text=True, cwd=FIXTURES.parent)
        assert run.returncode == 2
        assert run.stdout.startswith("parse error: ")
        assert f"(at {where})" in run.stdout
        assert "Traceback" not in run.stdout + run.stderr


CAPTURED = json.loads(
    (FIXTURES.parent / "bench" / "cli_expected.json").read_text(encoding="utf-8")
)


@pytest.fixture(scope="module")
def identity_documents(tmp_path_factory):
    """The identity fibration on the base of each fibration fixture that the
    captured ``compose`` runs read as ``%<name>_identity.json``."""
    from rupture_kit.documents import Document, load_document, serialize_document
    from rupture_kit.fibration import RupturedFibrationData
    from rupture_kit.simplicial import SimplicialMap

    out_dir = tmp_path_factory.mktemp("generated")
    for name in ("bank", "crane"):
        f = load_document(FIXTURES / f"{name}.json").body
        ident = RupturedFibrationData(
            f.base, f.base, SimplicialMap.identity(f.base.underlying)
        )
        (out_dir / f"{name}_identity.json").write_text(
            serialize_document(Document("fibration", ident)), encoding="utf-8"
        )
    return out_dir


def captured_args(invocation, identity_documents) -> list[str]:
    """The argv of a captured invocation: "@name" is a fixture and "%name"
    a generated identity document."""
    args = []
    for a in invocation.split(" "):
        if a.startswith("@"):
            a = str(FIXTURES / a[1:])
        elif a.startswith("%"):
            a = str(identity_documents / a[1:])
        args.append(a)
    return args


def first_of_each_command(invocations) -> list[str]:
    first = {}
    for invocation in sorted(invocations):
        first.setdefault(invocation.split(" ")[0], invocation)
    return sorted(first.values())


class TestCapturedOutput:
    """Every invocation captured in ``bench/cli_expected.json`` gives the
    same exit code and byte-identical stdout."""

    @pytest.mark.parametrize("invocation", sorted(CAPTURED))
    def test_matches_capture(self, identity_documents, invocation):
        expected = CAPTURED[invocation]
        args = captured_args(invocation, identity_documents)
        assert run_cli(*args) == (expected["exit"], expected["stdout"])

    @pytest.mark.parametrize("invocation", first_of_each_command(CAPTURED))
    def test_fresh_interpreter_matches_capture(self, identity_documents, invocation):
        """One invocation of each subcommand as its own process, where no
        earlier test has loaded a module for it."""
        expected = CAPTURED[invocation]
        args = captured_args(invocation, identity_documents)
        run = subprocess.run([sys.executable, "-m", "rupture_kit", *args],
                             capture_output=True, text=True, cwd=FIXTURES.parent)
        assert (run.returncode, run.stdout) == (expected["exit"], expected["stdout"])


class TestMonodromyOracle:
    """``monodromy --json`` reads each loop's permutation from the closure
    registry; it must equal ``monodromy`` for moved and fixed loops alike."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_images_match_monodromy(self, tmp_path, m):
        from rupture_kit.covering import (
            EdgePath,
            build_double_cover,
            monodromy,
            trivial_double_cover,
        )
        from rupture_kit.documents import CoveringTask, Document, serialize_document
        from rupture_kit.simplicial import SimplexId

        generator = EdgePath.forward(*range(m))
        loops = (generator, generator.concat(generator), EdgePath(()))
        basepoint = SimplexId(0, 0)
        task = tmp_path / "task.json"
        task_doc = Document("covering-task", CoveringTask(basepoint, loops))
        task.write_text(serialize_document(task_doc))
        covers = {"double": build_double_cover(m), "trivial": trivial_double_cover(m)}
        for name, cover in covers.items():
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_document(Document("fibration", cover)))
            code, out = run_cli("monodromy", path, task, "--json")
            assert code == 0
            reports = json.loads(out)["loops"]
            assert len(reports) == len(loops)
            for loop, report in zip(loops, reports):
                expected = monodromy(cover, basepoint, loop).mapping
                assert [tuple(p) for p in report["images"]] == list(expected), (name, loop)


class TestDeriveOracle:
    """``derive`` reports the horn as the conjunction of its two verdicts;
    it must agree with ``detect_derivability_horn`` either way."""

    def test_horn_matches_detector(self, tmp_path):
        from rupture_kit.derivability import (
            Annotation,
            AtomType,
            Pair,
            ProdType,
            ResourceContext,
            Substitution,
            UnitTerm,
            UnitType,
            Var,
            detect_derivability_horn,
        )
        from rupture_kit.documents import DeriveTask, Document, serialize_document

        a = AtomType("A")
        terms = [Var("x"), Pair(Var("x"), Var("x")), UnitTerm()]
        goals = [a, ProdType(a, a), UnitType()]
        sigma = Substitution.of({"x": "y"})
        path = tmp_path / "task.json"
        seen = set()
        for here, there, term, goal in itertools.product(Annotation, Annotation, terms, goals):
            gamma = ResourceContext.of(("x", a, here))
            delta = ResourceContext.of(("y", a, there))
            task = DeriveTask(gamma, delta, sigma, term, goal)
            path.write_text(serialize_document(Document("derive-task", task)))
            code, out = run_cli("derive", path, "--json")
            horn = detect_derivability_horn(gamma, delta, sigma, term, goal) is not None
            assert code == 0
            assert json.loads(out)["horn"] == horn, (here, there, term, goal)
            seen.add(horn)
        assert seen == {True, False}
