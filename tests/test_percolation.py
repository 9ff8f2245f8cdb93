import json
import random

import pytest

from bandlink import close, faces, parse_trace, trace_to_json, verify_witness
from bandlink.errors import UnknownVertex
from bandlink.percolation import Closure, format_trace
from helpers import random_map, sequential_close


class TestCurl:
    def test_empty_set_percolates(self, curl):
        assert verify_witness(curl, ())

    def test_single_vertex_faces_fire_first(self, curl):
        coloring, trace = close(curl, faces(curl), ())
        assert coloring.complete
        assert coloring.step_of(1) == 1
        assert trace.entries[0].face == 1

    def test_manual_vertex_is_step_zero(self, curl):
        coloring, _ = close(curl, faces(curl), [1])
        assert coloring.step_of(1) == 0
        assert coloring.auto == {}


class TestTriangle:
    def test_needs_two_vertices(self, triangle):
        assert not verify_witness(triangle, ())
        assert not verify_witness(triangle, [2])
        assert verify_witness(triangle, [1, 3])

    def test_close_records_witness_face(self, triangle):
        coloring, trace = close(triangle, faces(triangle), [1, 3])
        assert coloring.complete
        assert coloring.auto == {2: 1}
        assert trace.entries == (trace.entries[0],)
        assert trace.entries[0].vertex == 2
        assert trace.entries[0].face == 1


class TestArguments:
    def test_unknown_vertex_rejected(self, triangle):
        with pytest.raises(UnknownVertex):
            close(triangle, faces(triangle), [4])
        with pytest.raises(UnknownVertex):
            verify_witness(triangle, [0])
        with pytest.raises(UnknownVertex):
            verify_witness(triangle, [1, 3, 99])

    def test_manual_may_repeat(self, triangle):
        coloring, _ = close(triangle, faces(triangle), [1, 1, 3])
        assert coloring.manual == frozenset({1, 3})


class TestTraceFormats:
    def test_text_round_trip(self, triangle):
        _, trace = close(triangle, faces(triangle), [1, 3])
        assert parse_trace(format_trace(trace)) == trace

    def test_json_round_trip(self, triangle):
        _, trace = close(triangle, faces(triangle), [1, 3])
        text = trace_to_json(trace)
        assert parse_trace(text) == trace
        assert json.loads(text)["manual"] == [1, 3]

    def test_text_layout(self, triangle):
        _, trace = close(triangle, faces(triangle), [1, 3])
        assert format_trace(trace) == "manual: 1 3\nstep 1 vertex 2 face 1\n"


def _engine_state(engine: Closure):
    return list(engine.count), list(engine.sum), list(engine.colored)


class TestEngine:
    def test_fixpoint_matches_sequential_reference(self):
        rng = random.Random(21)
        for _ in range(40):
            m = random_map(rng)
            fs = faces(m)
            manual = {
                v for v in range(1, m.vertex_count + 1) if rng.random() < 0.3
            }
            engine = Closure(m.vertex_count, fs)
            engine.add(manual)
            assert set(engine.order) == sequential_close(rng, fs, manual)
            assert len(engine.order) == len(set(engine.order))

    def test_add_is_incremental(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_map(rng)
            fs = faces(m)
            everybody = range(1, m.vertex_count + 1)
            a = [v for v in everybody if rng.random() < 0.2]
            b = [v for v in everybody if rng.random() < 0.2]
            stepwise = Closure(m.vertex_count, fs)
            stepwise.add(a)
            stepwise.add(b)
            at_once = Closure(m.vertex_count, fs)
            at_once.add(set(a) | set(b))
            assert set(stepwise.order) == set(at_once.order)
            assert _engine_state(stepwise) == _engine_state(at_once)

    def test_undo_restores_state(self):
        rng = random.Random(24)
        for _ in range(40):
            m = random_map(rng)
            engine = Closure(m.vertex_count, faces(m))
            everybody = range(1, m.vertex_count + 1)
            snapshots = [(0, _engine_state(engine))]
            for _ in range(3):
                engine.add(v for v in everybody if rng.random() < 0.2)
                snapshots.append((len(engine.order), _engine_state(engine)))
            for mark, state in reversed(snapshots):
                engine.undo(mark)
                assert len(engine.order) == mark
                assert _engine_state(engine) == state
            engine.add(())
            fresh = Closure(m.vertex_count, faces(m))
            fresh.add(())
            assert _engine_state(engine) == _engine_state(fresh)


class TestClosureProperties:
    def test_monotone_idempotent_schedule_free(self):
        rng = random.Random(22)
        for _ in range(60):
            m = random_map(rng)
            fs = faces(m)
            everybody = range(1, m.vertex_count + 1)
            small = {v for v in everybody if rng.random() < 0.25}
            grown = small | {v for v in everybody if rng.random() < 0.25}
            closed_small, _ = close(m, fs, small)
            closed_grown, _ = close(m, fs, grown)
            assert closed_small.colored <= closed_grown.colored
            again, _ = close(m, fs, closed_small.colored)
            assert again.colored == closed_small.colored
            assert sequential_close(rng, fs, small) == closed_small.colored
