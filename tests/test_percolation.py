import json
import random
import re

import pytest

from bandlink import build_band, close, faces, parse_trace, trace_to_json, verify_witness
from bandlink.errors import BandlinkError, dump_json
from bandlink.hull import check_witness
from bandlink.percolation import Closure, PercolationTrace, TraceEntry, format_trace
from helpers import random_map, random_spec, sequential_close


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

    def test_coloring_is_read_only(self, triangle):
        coloring, _ = close(triangle, faces(triangle), [1, 2])
        with pytest.raises(TypeError):
            coloring.auto[3] = 9
        assert coloring.step_of(3) == 1


class TestArguments:
    def test_unknown_vertex_rejected(self, triangle):
        with pytest.raises(BandlinkError, match=r"vertex 4 outside 1\.\.3"):
            close(triangle, faces(triangle), [4])
        with pytest.raises(BandlinkError, match=r"vertex 0 outside 1\.\.3"):
            verify_witness(triangle, [0])
        with pytest.raises(BandlinkError, match=r"vertex 99 outside 1\.\.3"):
            verify_witness(triangle, [1, 3, 99])

    def test_manual_may_repeat(self, triangle):
        coloring, _ = close(triangle, faces(triangle), [1, 1, 3])
        assert coloring.manual == frozenset({1, 3})

    @pytest.mark.parametrize("bad", [True, 2.0, "1"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("call", [
        lambda m, vs: close(m, faces(m), vs),
        verify_witness,
        check_witness,
    ], ids=["close", "verify_witness", "check_witness"])
    def test_vertex_ids_are_ints(self, triangle, call, bad):
        # A bool, float or string id is refused by name, wherever it stands
        # among the ids, not indexed or compared against 1..V.
        message = f"^vertex id {re.escape(repr(bad))} is not an integer$"
        for witness in ([bad], [1, bad], [bad, 3]):
            with pytest.raises(BandlinkError, match=message) as err:
                call(triangle, witness)
            assert err.value.exit_code == 2


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

    def test_json_bytes_match_the_encoder(self):
        # trace_to_json writes the document dump_json would, byte for byte.
        def encoded(trace):
            return dump_json({
                "manual": list(trace.manual),
                "steps": [
                    {"step": e.step, "vertex": e.vertex, "face": e.face}
                    for e in trace.entries
                ],
            })

        traces = [
            PercolationTrace(()),
            PercolationTrace((), (TraceEntry(1, 2, 3), TraceEntry(2, 4, 1))),
            PercolationTrace((1, 3)),
        ]
        rng = random.Random(28)
        maps = [random_map(rng) for _ in range(40)]
        maps += [build_band(random_spec(rng, cap=rng.randint(18, 26))).diagram for _ in range(20)]
        for m in maps:
            manual = [v for v in range(1, m.vertex_count + 1) if rng.random() < 0.3]
            traces.append(close(m, faces(m), manual)[1])
        assert any(t.manual and t.entries for t in traces)
        for trace in traces:
            assert trace_to_json(trace) == encoded(trace)

    @pytest.mark.parametrize(
        "line", ["manual: 1 \uff13", "step 1 vertex 2 face 0_1"], ids=["fullwidth", "underscore"]
    )
    def test_text_ids_are_ascii_digits(self, line):
        with pytest.raises(BandlinkError, match=f"line 1: bad trace line {line!r}"):
            parse_trace(line + "\n")

    def test_manual_line_splits_at_its_first_colon_only(self):
        # "1:2" is one bad id, not the manual set (1).
        with pytest.raises(BandlinkError, match="^line 1: bad trace line 'manual: 1:2'$"):
            parse_trace("manual: 1:2\n")


def _engine_state(engine: Closure):
    return list(engine.count), list(engine.sum), list(engine.colored)


def _add_by_color(engine: Closure, vertices) -> None:
    """``add`` by its definition: ``color`` each given vertex, then each
    vertex a popped ready face names."""
    for v in vertices:
        if not engine.colored[v]:
            engine.color(v)
    while engine.ready:
        f = engine.ready.pop()
        if engine.count[f] == 1:
            engine.color(engine.sum[f])


def _random_steps(rng, engine: Closure, steps: int):
    """Seeded calls for ``engine``: ("add", vertices), ("undo", mark) or
    ("reset",), each drawn after the caller has made the one before."""
    everybody = range(1, len(engine.colored))
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            yield ("reset",)
        elif roll < 0.4 and engine.order:
            yield ("undo", rng.randint(0, len(engine.order)))
        else:
            yield ("add", [v for v in everybody if rng.random() < 0.2])


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

    def test_reset_matches_a_fresh_engine(self):
        rng = random.Random(25)
        for _ in range(40):
            m = random_map(rng)
            engine = Closure(m.vertex_count, faces(m))
            everybody = range(1, m.vertex_count + 1)
            for _ in range(rng.randint(1, 6)):
                if engine.order and rng.random() < 0.4:
                    engine.undo(rng.randint(0, len(engine.order)))
                else:
                    engine.add(v for v in everybody if rng.random() < 0.2)
            engine.reset()
            fresh = Closure(m.vertex_count, faces(m))
            assert _engine_state(engine) == _engine_state(fresh)
            assert engine.order == fresh.order == []
            manual = [v for v in everybody if rng.random() < 0.3]
            engine.add(manual)
            fresh.add(manual)
            assert set(engine.order) == set(fresh.order)
            assert _engine_state(engine) == _engine_state(fresh)


    def test_visits_count_every_coloring(self):
        # One visit per face at construction, plus len(faces_of[v]) each time
        # v is colored, recolorings after undo and reset included.
        rng = random.Random(26)
        for _ in range(40):
            m = random_map(rng)
            fs = faces(m)
            engine = Closure(m.vertex_count, fs)
            want = len(fs)
            for step in _random_steps(rng, engine, 8):
                if step[0] == "add":
                    mark = len(engine.order)
                    engine.add(step[1])
                    want += sum(len(engine.faces_of[v]) for v in engine.order[mark:])
                elif step[0] == "undo":
                    engine.undo(step[1])
                else:
                    engine.reset()
                assert engine.visits == want

    def test_add_matches_color_and_the_ready_rule(self):
        rng = random.Random(27)
        for _ in range(40):
            m = random_map(rng)
            fs = faces(m)
            engine = Closure(m.vertex_count, fs)
            by_color = Closure(m.vertex_count, fs)
            for step in _random_steps(rng, engine, 8):
                if step[0] == "add":
                    engine.add(step[1])
                    _add_by_color(by_color, step[1])
                elif step[0] == "undo":
                    engine.undo(step[1])
                    by_color.undo(step[1])
                else:
                    engine.reset()
                    by_color.reset()
                assert _engine_state(engine) == _engine_state(by_color)
                assert (engine.order, engine.visits) == (by_color.order, by_color.visits)


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
