"""R003 golden fixture: an unguarded probe call in simulation code."""
# repro-lint: module=repro.core.fixture


def publish(probe, value):
    probe.counter("requests", value)
