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
