"""R005–R007 behavior: taint, pool races, schema contracts, src cleanliness."""

from pathlib import Path

import pytest

from repro.analysis import LintEngine, lint_paths
from repro.analysis.engine import ModuleSource

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def _lint(tmp_path, source, *, module="repro.demo.sample", select=None):
    path = tmp_path / "sample.py"
    path.write_text(f"# repro-lint: module={module}\n{source}")
    return LintEngine(select=select).lint_file(path)


class TestSeedProvenance:
    def test_seed_parameter_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import random\n"
            "def build(seed):\n"
            "    return random.Random(seed)\n",
            select=["R005"],
        )

    def test_config_seed_field_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import random\n"
            "def build(cfg):\n"
            "    return random.Random(cfg.seed)\n",
            select=["R005"],
        )

    def test_literal_seed_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import numpy as np\n"
            "def build():\n"
            "    return np.random.default_rng(99)\n",
            select=["R005"],
        )

    def test_ambient_rng_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "import numpy as np\n"
            "def build():\n"
            "    return np.random.default_rng()\n",
            select=["R005"],
        )
        assert violation.rule == "R005"
        assert "ambient" in violation.message

    def test_rng_stored_in_module_global_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "import random\n"
            "_RNG = None\n"
            "def init(seed):\n"
            "    global _RNG\n"
            "    _RNG = random.Random(seed)\n",
            select=["R005"],
        )
        assert "module global" in violation.message

    def test_seed_fanout_into_two_rngs_flagged(self, tmp_path):
        violations = _lint(
            tmp_path,
            "import random\n"
            "def build(seed):\n"
            "    a = random.Random(seed)\n"
            "    b = random.Random(seed)\n"
            "    return a, b\n",
            select=["R005"],
        )
        assert violations, "fan-out of one seed into two RNGs must be flagged"
        assert any("fan" in v.message for v in violations)

    def test_taint_propagates_through_call_graph(self, tmp_path):
        # the seed arrives via an interprocedural edge: caller(seed) ->
        # _make(value) -> Random(value); no seed-named local in _make
        assert not _lint(
            tmp_path,
            "import random\n"
            "def _make(value):\n"
            "    return random.Random(value)\n"
            "def caller(seed):\n"
            "    return _make(seed)\n",
            select=["R005"],
        )

    def test_untraceable_seed_expression_flagged(self, tmp_path):
        (violation,) = _lint(
            tmp_path,
            "import random\n"
            "import time\n"
            "def build():\n"
            "    return random.Random(time.time())\n",
            select=["R005"],
        )
        assert violation.rule == "R005"


class TestPoolSafety:
    def test_golden_fixture_flags_smuggled_global(self):
        violations = LintEngine().lint_file(FIXTURES / "r006_poolsmuggle.py")
        (violation,) = violations
        assert violation.rule == "R006"
        assert "repro.harness.fixture.record" in violation.message
        assert "_RESULTS" in violation.message

    def test_fixture_with_real_sweep_resolves_in_program(self):
        # combined with the real harness module, run_sweep's fn parameter is
        # discovered from its own pool.map body (not the known-entry table)
        report = lint_paths(
            [FIXTURES / "r006_poolsmuggle.py", SRC / "repro/harness/sweep.py"]
        )
        r006 = [v for v in report.violations if v.rule == "R006"]
        (violation,) = r006
        assert "_RESULTS" in violation.message
        assert violation.path.endswith("r006_poolsmuggle.py")

    def test_lambda_into_pool_flagged(self, tmp_path):
        violations = _lint(
            tmp_path,
            "import multiprocessing\n"
            "def sweep(items):\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(lambda x: x + 1, items)\n",
            select=["R006"],
        )
        assert violations
        assert any("lambda" in v.message.lower() for v in violations)

    def test_nested_def_into_pool_flagged(self, tmp_path):
        violations = _lint(
            tmp_path,
            "import multiprocessing\n"
            "def sweep(items, bias):\n"
            "    def shifted(x):\n"
            "        return x + bias\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(shifted, items)\n",
            select=["R006"],
        )
        assert violations

    def test_pure_module_level_def_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import multiprocessing\n"
            "def double(x):\n"
            "    return 2 * x\n"
            "def sweep(items):\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(double, items)\n",
            select=["R006"],
        )

    def test_transitive_global_reach_flagged(self, tmp_path):
        # worker itself is clean; its helper touches the mutable global —
        # the violation message names the full access path
        violations = _lint(
            tmp_path,
            "import multiprocessing\n"
            "_SEEN = set()\n"
            "def _helper(x):\n"
            "    _SEEN.add(x)\n"
            "    return x\n"
            "def worker(x):\n"
            "    return _helper(x)\n"
            "def sweep(items):\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(worker, items)\n",
            select=["R006"],
        )
        assert violations
        assert any(
            "worker" in v.message and "_helper" in v.message
            and "_SEEN" in v.message
            for v in violations
        )

    def test_immutable_global_read_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "import multiprocessing\n"
            "SCALE = 3\n"
            "NAMES = frozenset({'a', 'b'})\n"
            "def worker(x):\n"
            "    return SCALE * x if 'a' in NAMES else x\n"
            "def sweep(items):\n"
            "    with multiprocessing.Pool(2) as pool:\n"
            "        return pool.map(worker, items)\n",
            select=["R006"],
        )

    def test_real_sweep_entry_points_are_clean(self):
        # the acceptance bar: the real harness sweep module passes R006
        report = lint_paths([SRC / "repro" / "harness"], select=["R006"])
        assert report.ok, [v.format() for v in report.active]


class TestSchemaRoundTrip:
    """R007: ``schema_version`` is written only through ``repro.schema``."""

    def test_writer_without_reader_flagged(self):
        (violation,) = LintEngine().lint_file(FIXTURES / "r007_schema.py")
        assert violation.rule == "R007"
        assert "repro.schema.Schema" in violation.message

    def test_hand_rolled_writer_reader_pair_flagged(self, tmp_path):
        # a matching hand-written reader no longer excuses the writer
        (violation,) = _lint(
            tmp_path,
            "DOC_SCHEMA_VERSION = 2\n"
            "_DOC_FIELDS = frozenset({'schema_version', 'items', 'count'})\n"
            "def write(items):\n"
            "    return {\n"
            "        'schema_version': DOC_SCHEMA_VERSION,\n"
            "        'items': items,\n"
            "        'count': len(items),\n"
            "    }\n"
            "def load(doc):\n"
            "    if doc.get('schema_version') != DOC_SCHEMA_VERSION:\n"
            "        raise ValueError('version mismatch')\n"
            "    missing = _DOC_FIELDS - set(doc)\n"
            "    if missing:\n"
            "        raise ValueError('missing')\n"
            "    return doc\n",
            select=["R007"],
        )
        assert violation.line == 5  # the writer's dict literal

    def test_stamping_through_schema_is_clean(self, tmp_path):
        assert not _lint(
            tmp_path,
            "from repro.schema import Schema\n"
            "DOC_SCHEMA = Schema('doc', 2, required=('items', 'count'))\n"
            "def write(items):\n"
            "    return DOC_SCHEMA.stamp(items=items, count=len(items))\n"
            "def load(doc):\n"
            "    return DOC_SCHEMA.load(doc)['items']\n",
            select=["R007"],
        )

    def test_schema_module_is_exempt(self, tmp_path):
        assert not _lint(
            tmp_path,
            "def stamp(fields):\n"
            "    return {'schema_version': 1, **fields}\n",
            module="repro.schema",
            select=["R007"],
        )

    def test_field_mismatch_flagged(self):
        # field agreement is a property of the declaration: both sides
        # of every document check it at run time
        from repro.schema import Schema

        schema = Schema("doc", 2, required=("items",))
        with pytest.raises(ValueError, match="extra_field"):
            schema.stamp(items=[], extra_field=1)
        with pytest.raises(ValueError, match="extra_field"):
            schema.load({"schema_version": 2, "items": [], "extra_field": 1})

    def test_private_and_augmented_keys(self, tmp_path):
        # doc['schema_version'] = ... is a hand stamp; '_private' keys are
        # carry-alongs the declaration passes through unchecked
        from repro.schema import Schema

        (violation,) = _lint(
            tmp_path,
            "def write():\n"
            "    doc = {'_private': 0}\n"
            "    doc['schema_version'] = 1\n"
            "    return doc\n",
            select=["R007"],
        )
        assert violation.line == 4
        stamped = Schema("doc", 1, required=("items",)).stamp(
            items=[], _private=0,
        )
        assert stamped == {"schema_version": 1, "items": [], "_private": 0}


class TestSrcClean:
    def test_whole_src_clean_under_interprocedural_rules(self):
        report = lint_paths([SRC], select=["R005", "R006", "R007"])
        assert report.ok, [v.format() for v in report.active]

    def test_every_waiver_has_a_written_reason(self):
        report = lint_paths([SRC])
        assert report.ok, [v.format() for v in report.active]
        for violation in report.waived:
            assert violation.waiver_reason, violation.format()
            assert violation.waiver_reason.strip()


class TestSchemaReaders:
    """SloSpec.from_dict keeps its own version check and error codes."""

    def test_slo_spec_rejects_wrong_version(self):
        from repro.obs.slo import SloSpec, SloSpecError

        with pytest.raises(SloSpecError, match="schema_version"):
            SloSpec.from_dict({"schema_version": 99, "window_us": 100.0})
        spec = SloSpec.from_dict({"schema_version": 1, "window_us": 100.0})
        doc = spec.to_dict()
        again = SloSpec.from_dict(doc)
        assert again.to_dict() == doc
        # a hand-written spec may omit the version stamp
        assert SloSpec.from_dict({"window_us": 100.0}).to_dict() == doc
