"""Unit tests for rewriting plans: construction, substitution, execution."""

import pytest

from repro.query.algebra import (
    EqualsColumn,
    EqualsConstant,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    execute,
    iter_nodes,
    replace_scan,
    rename_scan,
    scans,
    view_names,
)
from repro.rdf.terms import URI

A, B, C, D = URI("http://a"), URI("http://b"), URI("http://c"), URI("http://d")

V1_ROWS = [(A, B), (A, C), (B, C)]
V2_ROWS = [(B, D), (C, A)]
EXTENTS = {"v1": V1_ROWS, "v2": V2_ROWS}


class TestConstruction:
    def test_scan_schema(self):
        scan = Scan("v1", ("x", "y"))
        assert scan.schema == ("x", "y")

    def test_scan_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Scan("v1", ("x", "x"))

    def test_select_preserves_schema(self):
        plan = Select(Scan("v1", ("x", "y")), (EqualsConstant("x", A),))
        assert plan.schema == ("x", "y")

    @pytest.mark.parametrize(
        "condition",
        [EqualsConstant("z", A), EqualsColumn("x", "z"), EqualsColumn("z", "y")],
        ids=str,
    )
    def test_select_columns_validated(self, condition):
        """A malformed selection fails where it is built, not when it
        runs."""
        with pytest.raises(ValueError, match="not in child schema"):
            Select(Scan("v1", ("x", "y")), (condition,))

    def test_project_schema_and_validation(self):
        plan = Project(Scan("v1", ("x", "y")), ("y",))
        assert plan.schema == ("y",)
        with pytest.raises(ValueError):
            Project(Scan("v1", ("x", "y")), ("z",))

    def test_join_schema_dedups_shared(self):
        left = Scan("v1", ("x", "y"))
        right = Scan("v2", ("y", "z"))
        join = Join(left, right)
        assert join.schema == ("x", "y", "z")
        assert join.natural_pairs == (("y", "y"),)

    def test_join_explicit_pairs_validated(self):
        left = Scan("v1", ("x", "y"))
        right = Scan("v2", ("u", "z"))
        Join(left, right, pairs=(("y", "u"),))
        with pytest.raises(ValueError):
            Join(left, right, pairs=(("nope", "u"),))

    def test_rename_arity_checked(self):
        with pytest.raises(ValueError):
            Rename(Scan("v1", ("x", "y")), ("a",))


class TestTraversal:
    def make_plan(self):
        left = Scan("v1", ("x", "y"))
        right = Scan("v2", ("y", "z"))
        return Project(Select(Join(left, right), (EqualsConstant("x", A),)), ("x", "z"))

    def test_iter_nodes_children_first(self):
        kinds = [type(node).__name__ for node in iter_nodes(self.make_plan())]
        assert kinds == ["Scan", "Scan", "Join", "Select", "Project"]

    def test_scans_and_view_names(self):
        plan = self.make_plan()
        assert [s.view for s in scans(plan)] == ["v1", "v2"]
        assert view_names(plan) == {"v1", "v2"}


class TestSubstitution:
    def test_replace_scan_schema_must_match(self):
        plan = Scan("v1", ("x", "y"))
        replacement = Project(Scan("v9", ("x", "y", "w")), ("x", "y"))
        replaced = replace_scan(plan, "v1", replacement)
        assert view_names(replaced) == {"v9"}
        with pytest.raises(ValueError):
            replace_scan(plan, "v1", Scan("v9", ("x",)))

    def test_replace_scan_deep(self):
        plan = Project(
            Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z"))), ("x", "z")
        )
        replacement = Project(Scan("v3", ("y", "z", "k")), ("y", "z"))
        replaced = replace_scan(plan, "v2", replacement)
        assert view_names(replaced) == {"v1", "v3"}
        assert replaced.schema == plan.schema

    def test_replace_scan_no_match_returns_same_object(self):
        plan = Project(Scan("v1", ("x", "y")), ("x",))
        assert replace_scan(plan, "nope", Scan("v9", ("x", "y"))) is plan

    def test_rename_scan(self):
        plan = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
        renamed = rename_scan(plan, "v2", "v7")
        assert view_names(renamed) == {"v1", "v7"}


class TestExecution:
    """``execute`` folds a plan into its *set* of rows (the semantics of
    the conjunctive rewritings): no duplicates, no row order."""

    def test_scan(self):
        assert execute(Scan("v1", ("x", "y")), EXTENTS) == set(V1_ROWS)

    def test_scan_dedups_a_list_extent(self):
        extents = {"v": [(A, B), (A, B)]}
        assert execute(Scan("v", ("x", "y")), extents) == {(A, B)}

    def test_set_extents_are_read_and_never_mutated(self):
        extents = {"v1": set(V1_ROWS), "v2": set(V2_ROWS)}
        scanned = execute(Scan("v1", ("x", "y")), extents)
        assert scanned == set(V1_ROWS) and scanned is not extents["v1"]
        scanned.clear()
        execute(Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z"))), extents)
        assert extents == {"v1": set(V1_ROWS), "v2": set(V2_ROWS)}

    def test_missing_extent_raises(self):
        with pytest.raises(KeyError, match="no extent provided"):
            execute(Scan("zzz", ("x",)), EXTENTS)

    def test_select_constant(self):
        plan = Select(Scan("v1", ("x", "y")), (EqualsConstant("x", A),))
        assert execute(plan, EXTENTS) == {(A, B), (A, C)}

    def test_select_column_equality(self):
        extents = {"v": [(A, A), (A, B)]}
        plan = Select(Scan("v", ("x", "y")), (EqualsColumn("x", "y"),))
        assert execute(plan, extents) == {(A, A)}

    def test_select_conjunction(self):
        extents = {"v": [(A, A, B), (A, A, C), (B, A, B)]}
        plan = Select(
            Scan("v", ("x", "y", "z")),
            (EqualsColumn("x", "y"), EqualsConstant("z", B)),
        )
        assert execute(plan, extents) == {(A, A, B)}

    def test_project_dedups(self):
        plan = Project(Scan("v1", ("x", "y")), ("x",))
        assert execute(plan, EXTENTS) == {(A,), (B,)}

    def test_project_to_no_column(self):
        plan = Project(Scan("v1", ("x", "y")), ())
        assert execute(plan, EXTENTS) == {()}
        assert execute(plan, {"v1": []}) == set()

    def test_natural_join(self):
        plan = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
        assert execute(plan, EXTENTS) == {(A, B, D), (A, C, A), (B, C, A)}

    def test_explicit_pair_join(self):
        left = Scan("v1", ("x", "y"))
        right = Scan("v2", ("u", "z"))
        plan = Join(left, right, pairs=(("y", "u"),))
        assert execute(plan, EXTENTS) == {(A, B, B, D), (A, C, C, A), (B, C, C, A)}

    def test_cross_join(self):
        plan = Join(Scan("v1", ("x", "y")), Scan("v2", ("u", "z")))
        assert len(execute(plan, EXTENTS)) == len(V1_ROWS) * len(V2_ROWS)

    def test_rename_is_identity_on_rows(self):
        plan = Rename(Scan("v1", ("x", "y")), ("a", "b"))
        assert execute(plan, EXTENTS) == set(V1_ROWS)
        assert plan.schema == ("a", "b")

    def test_full_pipeline(self):
        # π_z(σ_x=A(v1 ⋈ v2)) over shared column y.
        join = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
        plan = Project(Select(join, (EqualsConstant("x", A),)), ("z",))
        assert execute(plan, EXTENTS) == {(D,), (A,)}
