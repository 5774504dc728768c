"""Every versioned document round-trips through its ``repro.schema`` declaration.

Each declared :class:`~repro.schema.Schema` is exercised on a document
its production writer actually produced: the JSON round trip loads
unchanged, a wrong version / dropped required field / extra public field
each raise, and ``stamp`` refuses undeclared fields while passing
``_``-prefixed carry-alongs through.  The last test collects every
``Schema(...)`` call under ``src/`` so a new document cannot skip this
file.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from repro.schema import Schema, write_json

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
LINT_FIXTURE = REPO / "tests" / "analysis" / "fixtures" / "r004_scheduling.py"


@pytest.fixture(scope="module")
def explained():
    from repro.harness.explain import explain_scenario

    return explain_scenario("gc_heavy", quick=True, sanitize=True)


@pytest.fixture(scope="module")
def scenario():
    from repro.harness.scenarios import load_scenario

    _, requests, cfg, sets, faults = load_scenario(
        "mix2_shared", quick=True, event_driven=True
    )
    return requests, cfg, sets, faults


# ----------------------------------------------------------------------
# Production writers, one per declaration: (request) -> written document
# ----------------------------------------------------------------------
def _explain(request):
    doc = request.getfixturevalue("explained")
    # the live report objects are popped before the document is written
    return {k: v for k, v in doc.items() if not k.startswith("_")}


def _critpath(request):
    return request.getfixturevalue("explained")["_critpath_report"].to_dict()


def _whatif(request):
    return request.getfixturevalue("explained")["_whatif_report"].to_dict()


def _telemetry(request):
    from repro.obs import Observability
    from repro.ssd.simulator import simulate

    requests, cfg, sets, faults = request.getfixturevalue("scenario")
    obs = Observability(trace=False, telemetry=250.0)
    simulate(requests, cfg, sets, obs=obs, faults=faults)
    header = obs.telemetry.header()
    # "kind" tags the record inside the JSONL stream; not a schema field
    assert header.pop("kind") == "header"
    return header


def _diff(request):
    from repro.obs.diff import diff_run

    requests, cfg, sets, faults = request.getfixturevalue("scenario")
    return diff_run(requests, cfg, sets, faults=faults)


def _flight(request):
    from repro.obs import FlightRecorder

    recorder = FlightRecorder(
        request.getfixturevalue("tmp_path"),
        context={"scale": "smoke"},
        replay_argv=["python", "-m", "repro", "stats"],
    )
    bundle = recorder.dump("slo-page", detail="tenant0", time_us=1.0)
    return json.loads((bundle / "manifest.json").read_text())


def _slo(request):
    from repro.obs.slo import SloSpec

    return SloSpec.load(REPO / "examples" / "slo.json").to_dict()


def _fleet(request):
    from repro.harness.fleetlab import run_fleet

    _, _, report = run_fleet(
        n_devices=2, n_tenants=2, total_requests=100, seed=3,
    )
    return report


def _lint_report(request):
    from repro.analysis import lint_paths

    return lint_paths([LINT_FIXTURE]).to_dict()


def _baseline(request):
    from repro.analysis import lint_paths
    from repro.analysis.baseline import write_baseline

    path = request.getfixturevalue("tmp_path") / "baseline.json"
    assert write_baseline(lint_paths([LINT_FIXTURE]), path) == 1
    return json.loads(path.read_text())


#: "module.NAME" of every declaration -> its production writer
DOCUMENTS = {
    "repro.analysis.baseline.BASELINE_SCHEMA": _baseline,
    "repro.analysis.engine.REPORT_SCHEMA": _lint_report,
    "repro.harness.explain.EXPLAIN_SCHEMA": _explain,
    "repro.obs.critpath.CRITPATH_SCHEMA": _critpath,
    "repro.obs.diff.DIFF_SCHEMA": _diff,
    "repro.obs.fleet.FLEET_SCHEMA": _fleet,
    "repro.obs.flightrecorder.FLIGHT_SCHEMA": _flight,
    "repro.obs.slo.SLO_SCHEMA": _slo,
    "repro.obs.telemetry.TELEMETRY_SCHEMA": _telemetry,
    "repro.obs.whatif.WHATIF_SCHEMA": _whatif,
}


def _declaration(qualname: str) -> Schema:
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(module), name)


@pytest.fixture(params=sorted(DOCUMENTS))
def case(request):
    """(schema, a document its production writer wrote, as read back)."""
    doc = DOCUMENTS[request.param](request)
    return _declaration(request.param), json.loads(json.dumps(doc))


class TestRoundTrip:
    def test_written_document_loads_unchanged(self, case):
        schema, doc = case
        before = json.dumps(doc)
        assert schema.load(doc) is doc
        assert json.dumps(doc) == before
        assert next(iter(doc)) == "schema_version"

    def test_wrong_version_raises(self, case):
        schema, doc = case
        wrong = {**doc, "schema_version": schema.version + 1}
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"{schema.name} has schema_version {schema.version + 1}; "
                f"this tool reads version {schema.version}"
            ),
        ):
            schema.load(wrong)
        unstamped = {k: v for k, v in doc.items() if k != "schema_version"}
        with pytest.raises(ValueError, match="schema_version None"):
            schema.load(unstamped)

    def test_dropped_required_field_raises(self, case):
        schema, doc = case
        assert schema.required
        for field in sorted(schema.required):
            truncated = {k: v for k, v in doc.items() if k != field}
            with pytest.raises(
                ValueError,
                match=re.escape(f"{schema.name} is missing fields: ['{field}']"),
            ):
                schema.load(truncated)

    def test_extra_public_field_raises(self, case):
        schema, doc = case
        with pytest.raises(ValueError, match=r"undeclared fields: \['surprise'\]"):
            schema.load({**doc, "surprise": 1})
        assert schema.load({**doc, "_carry": 1})["_carry"] == 1

    def test_stamp_checks_fields(self, case):
        schema, doc = case
        fields = {k: v for k, v in doc.items() if k != "schema_version"}
        assert schema.stamp(**fields) == doc
        with pytest.raises(ValueError, match="surprise"):
            schema.stamp(**fields, surprise=1)
        with pytest.raises(ValueError, match="schema_version"):
            schema.stamp(**fields, schema_version=schema.version)
        carried = schema.stamp(**fields, _carry=object())
        assert {k: v for k, v in carried.items() if k != "_carry"} == doc


def test_non_object_is_refused():
    schema = Schema("doc", 1, required=("items",))
    with pytest.raises(ValueError, match="doc must be a JSON object"):
        schema.load([1, 2])


def test_tight_slo_spec_is_stamped_by_the_declaration():
    from repro.harness.fleetlab import _tight_slo_dict
    from repro.obs.slo import SLO_SCHEMA, SloSpec

    doc = _tight_slo_dict([0, 1])
    assert SLO_SCHEMA.load(doc)["schema_version"] == SLO_SCHEMA.version
    SloSpec.from_dict(doc, known_tenants={0, 1})


def test_write_json_is_sorted_and_newline_terminated(tmp_path):
    path = write_json({"b": 1, "a": {"d": 2, "c": 3}}, tmp_path / "x" / "y.json")
    assert path.read_text() == (
        '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n'
    )


def test_every_declaration_is_covered():
    from repro.analysis.engine import ModuleSource
    from repro.analysis.program import Program, dotted_name

    sources = [
        ModuleSource.parse(path)
        for path in sorted(SRC.rglob("*.py"), key=lambda p: p.as_posix())
        if "__pycache__" not in path.parts
    ]
    program = Program.build(sources)
    found = []
    for info in program.modules.values():
        declared_at = {
            id(glob.value): f"{info.name}.{name}"
            for name, glob in info.globals.items()
        }
        for node in ast.walk(info.source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func and program.canonical(info, func) == "repro.schema.Schema":
                found.append(declared_at.get(
                    id(node), f"{info.name}:{node.lineno} (not module-level)"
                ))
    assert sorted(found) == sorted(DOCUMENTS)
