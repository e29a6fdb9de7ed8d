"""The public API's parameters match the reviewed snapshot, so a new or dropped setting shows in a diff."""

from record_parameter_snapshot import SNAPSHOT_PATH, parameter_lines


class TestParameterSnapshot:
    def test_parameters_match_snapshot(self):
        recorded = SNAPSHOT_PATH.read_text().splitlines()
        current = parameter_lines()
        added = sorted(set(current) - set(recorded))
        dropped = sorted(set(recorded) - set(current))
        assert current == recorded, (
            f"public parameters differ from their snapshot (now: {added}, was: {dropped}); "
            f"if the change is meant, re-record with tests/record_parameter_snapshot.py "
            f"and check the diff")
