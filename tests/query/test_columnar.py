"""Unit tests of the columnar batch layout: :class:`ColumnBatch`
operations, including the zero-width boolean-head case that breaks
naive ``zip`` transposes."""

from repro.engine.columnar import ColumnBatch


class TestColumnBatch:
    def test_from_rows_round_trips(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        batch = ColumnBatch.from_rows(rows, 2)
        assert batch.columns == ((1, 2, 3), ("a", "b", "c"))
        assert len(batch) == 3
        assert batch.rows() == rows
        assert list(batch) == rows

    def test_zero_width_batches_keep_their_length(self):
        """Boolean heads produce zero-column rows; the explicit length
        is what survives where ``zip(*columns)`` would collapse."""
        batch = ColumnBatch.from_rows([(), (), ()], 0)
        assert batch.columns == ()
        assert len(batch) == 3
        assert batch.rows() == [(), (), ()]
        assert list(batch) == [(), (), ()]

    def test_project_is_zero_copy(self):
        batch = ColumnBatch.from_rows([(1, 10, 100), (2, 20, 200)], 3)
        projected = batch.project((2, 0))
        assert projected.rows() == [(100, 1), (200, 2)]
        assert projected.columns[0] is batch.columns[2]
        assert projected.columns[1] is batch.columns[0]
        assert len(projected) == 2

    def test_take_applies_a_selection_vector(self):
        batch = ColumnBatch.from_rows([(1, 10), (2, 20), (3, 30)], 2)
        taken = batch.take([2, 0])
        assert taken.rows() == [(3, 30), (1, 10)]
        assert len(taken) == 2
