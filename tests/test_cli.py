"""Command-line behavior: exit codes, report content, and determinism."""

import itertools
import json
import pathlib
import subprocess
import sys
import time
import types

import pytest

from rupture_kit import covering, derivability, fibration, judgments, ruptured, simplicial
from rupture_kit.cli import main
from rupture_kit.documents import MAX_DIM_BOUND

from support import (
    cli_env, count_documents, fixture_commands, hostile_documents, misfit_documents,
)

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

    @pytest.mark.parametrize("broken", [("total", "base"), ("total",), ("base",)],
                             ids="+".join)
    def test_a_fibration_report_names_the_space_of_each_row(self, tmp_path, broken):
        # a broken space is a triangle whose 2-simplex breaks two identities
        def triangle(last):
            return {"dim_bound": 2, "simplices": {"0": 3, "1": 3, "2": 1},
                    "faces": {"1": [[1, 0], [2, 0], [2, 1]], "2": [[2, 1, last]]}}
        spaces = {side: triangle(2 if side in broken else 0) for side in ("total", "base")}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "format": "rupture-kit/1", "kind": "fibration", **spaces,
            "map": {"0": [0, 1, 2], "1": [0, 1, 2], "2": [0]}}))
        rows = ["d_0 d_2 != d_1 d_0 on simplex 2/0", "d_1 d_2 != d_1 d_1 on simplex 2/0"]
        # with one space broken, the map no longer commutes with d_2
        commutes = len(broken) == 2
        assert run_cli("validate", path) == (1, "".join(
            f"simplicial-identity: {side}: {row}\n" for side in broken for row in rows)
            + ("" if commutes else "face-commutation: f(d_2(2/0)) != d_2(f(2/0))\n"))

    def test_a_gap_lift_whose_horn_faces_disagree_is_refused(self, tmp_path):
        # Its horn fits the ranges and its faces project onto the base
        # simplex's faces, but they disagree on their shared vertex.
        [(name, data, _)] = misfit_documents()
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        horn = "horn(n=2, k=1, faces={0:4, 2:1})"
        row = f"horn-compatibility: lift({horn} over 2/0): {horn}: d_0(faces[2]) != d_1(faces[0])"
        assert run_cli("validate", path) == (1, row + "\n")
        assert run_cli("transport", path, "--term", 0, "--path", 0) == (
            1, f"error: {path} is not valid: {row}\n")

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, out = run_cli("validate", path)
        assert code == 2 and out.startswith("parse error")

    @pytest.mark.parametrize("name,data", [doc[:2] for doc in hostile_documents()],
                             ids=[doc[0] for doc in hostile_documents()])
    def test_text_the_json_reader_refuses_exits_two_without_a_traceback(self, tmp_path,
                                                                         name, data):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        run = subprocess.run([sys.executable, "-m", "rupture_kit", "validate", str(path)],
                             capture_output=True, text=True, env=cli_env())
        assert (run.returncode, run.stderr) == (2, "")
        assert run.stdout.startswith("parse error: ") and run.stdout.count("\n") == 1

    @pytest.mark.parametrize("name,data", [doc[:2] for doc in hostile_documents()
                                           if doc[0].startswith("hostile-dim-bound")],
                             ids=["1000000", "4000-digits"])
    def test_a_bound_over_the_limit_exits_two_quickly(self, tmp_path, name, data):
        # Without the limit, reading and validating cost time for every
        # dimension up to the bound: 2.7 s for 1,000,000.
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        start = time.perf_counter()
        assert run_cli("validate", path, "--max-dim", 2) == (
            2, f"parse error: dim_bound must be at most {MAX_DIM_BOUND} (at complex.dim_bound)\n")
        assert time.perf_counter() - start < 0.5

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

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("max_dim,message", [(-1, "max_dim -1 is negative"),
                                                 (99, "max_dim 99 exceeds bound 2")])
    def test_max_dim_outside_the_bound_exits_one(self, json_flag, max_dim, message):
        code, out = run_cli("validate", FIXTURES / "triangle.json", "--max-dim", max_dim,
                            *json_flag)
        assert (code, out) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("name,kind,max_dim", [
        ("bank.json", "fibration", 2), ("double_cover_3.json", "fibration", 1),
        ("judgment_script.json", "judgment-script", -5),
        ("monodromy_task_3.json", "covering-task", 0),
        ("derive_linear_horn.json", "derive-task", 2),
    ])
    def test_max_dim_on_another_kind_exits_two(self, json_flag, name, kind, max_dim):
        path = FIXTURES / name
        code, out = run_cli("validate", path, "--max-dim", max_dim, *json_flag)
        assert (code, out) == (2, f"parse error: --max-dim needs a complex or ruptured "
                                  f"document, got '{kind}' (at {path})\n")
        assert run_cli("validate", path, *json_flag)[0] == 0


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

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_a_basepoint_off_the_base_is_refused_without_loops(self, tmp_path, flags):
        """No loop is lifted, and the basepoint is still checked as a loop's
        lift checks it."""
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"format": "rupture-kit/1", "kind": "covering-task",
                                    "basepoint": 99, "loops": []}), encoding="utf-8")
        code, out = run_cli("monodromy", FIXTURES / "double_cover_3.json", task, *flags)
        assert (code, out) == (1, "error: basepoint must be a base vertex, got 0/99\n")


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


class TestCountStretchedDocuments:
    # A scan of the whole context, loop registry or fiber per item made each
    # of these cost the square of its count: the three took 4.5 to 5.8 s
    # together in process, where one pass over each takes about 0.4 to 0.6 s
    # (Python 3.11 on a 2-vCPU VM).
    ARGVS = {
        "derive-task": lambda doc: ["derive", doc],
        "covering-task": lambda doc: ["monodromy", FIXTURES / "double_cover_3.json", doc],
        "fibration": lambda doc: ["monodromy", doc, FIXTURES / "monodromy_task_3.json"],
    }

    def test_each_command_costs_about_its_document(self, tmp_path):
        runs = []
        for name, data, kind in count_documents(2):
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            runs.append(self.ARGVS[kind](path))
        start = time.perf_counter()
        outputs = [run_cli(*argv) for argv in runs]
        assert time.perf_counter() - start < 3.0
        derive, walks, sheets = (out.splitlines() for _, out in outputs)
        assert [code for code, _ in outputs] == [0, 0, 0]
        assert derive[0].startswith("gamma: derivable (counts: x0=1, x1=1, x10=1")
        assert derive[1].startswith("delta: derivable (counts: y0=1")
        assert walks[:2] == ["loop 0: permutation: ()", "loop 1: permutation: ()"]
        assert walks[2] == "loop 2: permutation: (0 1)"
        assert len(walks) == 2001 + 1812 and walks[2000] == "gapped closures: 1812"
        assert sheets[:2] == ["loop 0: permutation: ()", "loop 1: permutation: ()"]


class TestJudgments:
    def test_script_replay(self):
        code, out = run_cli("judgments", FIXTURES / "judgment_script.json")
        assert code == 0
        assert "horn (w1, w2, w3)" in out
        assert "level 1 universe [w1,w2,w4]" in out

    @pytest.mark.parametrize(
        "row,line",
        [
            ({"op": "add", "judgment": {"atom": "J"}, "polarity": "gapped"},
             "add J gapped: rejected (judgment 'J' already witnessed coherent by w1)"),
            ({"op": "horn", "first": "w1", "second": "w9", "gap": "w1"},
             "horn error: missing witness id 'w9' for second"),
        ],
        ids=["exclusion", "missing-id"],
    )
    def test_violating_script_exits_one(self, tmp_path, row, line):
        script = {
            "format": "rupture-kit/1",
            "kind": "judgment-script",
            "script": [{"op": "add", "judgment": {"atom": "J"}, "polarity": "coherent"}, row],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(script))
        code, out = run_cli("judgments", path)
        assert (code, out.splitlines()[1]) == (1, line)

    def test_label_outside_the_universe_is_logged_not_fatal(self, tmp_path):
        # An add that level_up's universe refuses is one logged failure, as
        # an Exclusion breach is: the rows after it still run, and the
        # whole log and payload are printed.
        script = {
            "format": "rupture-kit/1",
            "kind": "judgment-script",
            "script": [
                {"op": "add", "judgment": {"atom": "a"}, "polarity": "coherent"},
                {"op": "level_up"},
                {"op": "add", "judgment": {"atom": "zz"}, "polarity": "coherent"},
                {"op": "is_open", "judgment": {"atom": "w1"}},
            ],
        }
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(script))
        log = [
            "add a coherent: w1",
            "level 1 universe [w1]",
            "add zz coherent: rejected (label 'zz' is outside this level-1 universe)",
            "open w1: True",
        ]
        code, out = run_cli("judgments", path)
        assert (code, out.splitlines()) == (
            1, log + ["final level 1, 0 entries, coherent fragment: True"])
        code, out = run_cli("judgments", path, "--json")
        assert code == 1 and json.loads(out) == {
            "coherent_fragment": True, "entries": [], "failures": 1, "level": 1, "log": log}


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
        first = subprocess.run(cmd, capture_output=True, cwd=FIXTURES.parent, env=cli_env())
        second = subprocess.run(cmd, capture_output=True, cwd=FIXTURES.parent, env=cli_env())
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty report


class TestRenderersCallNoKernel:
    """Text is rendered from the ``--json`` payload: on every fixture
    command, the text run and the ``--json`` run call the same public kernel
    functions in the same order, and exit with the same code. Each public
    function of the kernel modules is wrapped in every loaded ``rupture_kit``
    module that references it, as ``bench/tracing.py`` wraps them."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        log = []

        def recording(name, original):
            def recorded(*args, **kwargs):
                log.append(name)
                return original(*args, **kwargs)

            return recorded

        wrappers = {
            id(value): recording(f"{module.__name__}.{name}", value)
            for module in (simplicial, ruptured, fibration, covering, derivability, judgments)
            for name, value in vars(module).items()
            if not name.startswith("_") and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
        }
        for key, holder in list(sys.modules.items()):
            if key == "rupture_kit" or key.startswith("rupture_kit."):
                for attr, value in list(vars(holder).items()):
                    if id(value) in wrappers:
                        monkeypatch.setattr(holder, attr, wrappers[id(value)])
        return log

    @pytest.mark.parametrize("argv", fixture_commands()[::2],
                             ids=lambda argv: " ".join(pathlib.Path(a).name for a in argv))
    def test_text_and_json_make_the_same_kernel_calls(self, kernel_calls, argv):
        runs = []
        for extra in ([], ["--json"]):
            code, _ = run_cli(*argv, *extra)
            runs.append((code, list(kernel_calls)))
            kernel_calls.clear()
        assert runs[0][1] or argv[0] == "validate"
        assert runs[0] == runs[1]


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
        run = subprocess.run(
            cmd, capture_output=True, text=True, cwd=FIXTURES.parent, env=cli_env()
        )
        assert run.returncode == 2
        assert run.stdout.startswith("parse error: map covers 3 of 6 simplices")
        assert "(at fibration.map.1)" in run.stdout
        assert "Traceback" not in run.stdout + run.stderr


class TestComposites:
    """A composite designation names three base edges, and each (first,
    second) pair once; otherwise every command exits 2 at the entry."""

    @pytest.mark.parametrize(
        "composites,message",
        [
            ([{"first": 99, "second": 0, "composite": 7},
              {"first": 99, "second": 0, "composite": 8}],
             "no simplex 1/99 (at fibration.composites[0])"),
            ([{"first": 0, "second": 1, "composite": 5}],
             "no simplex 1/5 (at fibration.composites[0])"),
            ([{"first": 0, "second": 1, "composite": 2},
              {"first": 0, "second": 1, "composite": 0}],
             "composite of (0, 1) is listed twice (at fibration.composites[1])"),
        ],
        ids=["first", "composite", "listed-twice"],
    )
    @pytest.mark.parametrize(
        "command", [["validate"], ["transport", "--term", "0", "--path", "0"]]
    )
    def test_exits_two(self, tmp_path, composites, message, command):
        doc = json.loads((FIXTURES / "crane.json").read_text())
        doc["composites"] = composites
        path = tmp_path / "crane.json"
        path.write_text(json.dumps(doc))
        assert run_cli(command[0], path, *command[1:]) == (2, f"parse error: {message}\n")


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
        run = subprocess.run(
            cmd, capture_output=True, text=True, cwd=FIXTURES.parent, env=cli_env()
        )
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
                             capture_output=True, text=True, cwd=FIXTURES.parent,
                             env=cli_env())
        assert (run.returncode, run.stdout) == (expected["exit"], expected["stdout"])


class TestMonodromyOracle:
    """``monodromy --json`` reads each loop's permutation from the closure
    registry; it must equal ``monodromy`` for moved and fixed loops alike."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_images_match_monodromy(self, tmp_path, m):
        from rupture_kit.covering import (
            CoveringTask,
            EdgePath,
            build_double_cover,
            monodromy,
            trivial_double_cover,
        )
        from rupture_kit.documents import Document, serialize_document
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
            DeriveTask,
            Pair,
            ProdType,
            ResourceContext,
            Substitution,
            UnitTerm,
            UnitType,
            Var,
            detect_derivability_horn,
        )
        from rupture_kit.documents import Document, serialize_document

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
