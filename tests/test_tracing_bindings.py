"""The benchmark's tracer can still wrap every binding it instruments.

perfbench/tracing.py replaces public functions at the module attributes
through which the pipeline calls them. A refactor that drops one of those
bindings breaks the traced benchmark pass; installing and uninstalling the
tracer here catches that in the ordinary test run. The tracer module is
loaded from its file and left unmodified.
"""

import importlib.util
from pathlib import Path

import nfmimo.channel
import nfmimo.cli
import nfmimo.harness
import nfmimo.stats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("nfmimo_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_binding():
    modules = (nfmimo.channel, nfmimo.cli, nfmimo.harness, nfmimo.stats)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert nfmimo.stats.los_phase is not before[3]["los_phase"]
        assert nfmimo.channel.matrix_parts is not before[0]["matrix_parts"]
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
