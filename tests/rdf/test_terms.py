"""Unit tests for the RDF term model."""

import copy
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.rdf.terms import BlankNode, Literal, URI, is_term


class TestURI:
    def test_equality_is_by_value(self):
        assert URI("http://a") == URI("http://a")
        assert URI("http://a") != URI("http://b")

    def test_hashable(self):
        assert len({URI("http://a"), URI("http://a"), URI("http://b")}) == 2

    def test_n3_rendering(self):
        assert URI("http://a#x").n3() == "<http://a#x>"

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError):
            URI("")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            URI("http://a").value = "http://b"

    def test_non_str_value_rejected(self):
        with pytest.raises(TypeError):
            URI(123)


class TestLiteral:
    def test_plain_literal(self):
        lit = Literal("hello")
        assert lit.n3() == '"hello"'
        assert str(lit) == "hello"

    def test_language_tagged(self):
        assert Literal("bonjour", language="fr").n3() == '"bonjour"@fr'

    def test_datatyped(self):
        lit = Literal("42", datatype=URI("http://int"))
        assert lit.n3() == '"42"^^<http://int>'

    def test_datatype_and_language_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=URI("http://int"), language="en")

    def test_escaping_in_n3(self):
        lit = Literal('say "hi"\nplease\t\\ok')
        rendered = lit.n3()
        assert rendered == '"say \\"hi\\"\\nplease\\t\\\\ok"'

    def test_str_datatype_rejected(self):
        with pytest.raises(TypeError):
            Literal("x", datatype="http://int")

    def test_empty_language_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", language="")

    @pytest.mark.parametrize(
        "build",
        [lambda: Literal(42), lambda: Literal("x", language=1)],
        ids=["lexical", "language"],
    )
    def test_non_str_field_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_equality_distinguishes_language(self):
        assert Literal("x", language="en") != Literal("x", language="fr")
        assert Literal("x") != Literal("x", language="fr")


class TestBlankNode:
    def test_n3(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            BlankNode("")

    def test_distinct_labels_differ(self):
        assert BlankNode("a") != BlankNode("b")

    def test_non_str_label_rejected(self):
        with pytest.raises(TypeError):
            BlankNode(7)


def test_is_term():
    assert is_term(URI("http://a"))
    assert is_term(Literal("x"))
    assert is_term(BlankNode("b"))
    assert not is_term("http://a")
    assert not is_term(42)
    assert not is_term(None)


#: One term of every kind and shape the hash formula distinguishes.
TERMS = [
    URI("http://a"),
    Literal("42", datatype=URI("http://int")),
    Literal("bonjour", language="fr"),
    Literal("plain"),
    BlankNode("b1"),
]

#: The fields a frozen dataclass hashes, per term class.
FIELDS = {
    URI: lambda term: (term.value,),
    Literal: lambda term: (term.lexical, term.datatype, term.language),
    BlankNode: lambda term: (term.label,),
}


class TestHashContract:
    """A term hashes to the value the generated dataclass hash returned,
    in C, and pickles through its constructor, so a process under
    another hash seed hashes it anew. The tuple that holds its fields
    never shows through equality, order or ``is_term``."""

    @pytest.mark.parametrize("term", TERMS, ids=repr)
    def test_hash_is_the_generated_formula(self, term):
        assert hash(term) == hash(FIELDS[type(term)](term))

    @pytest.mark.parametrize("term", TERMS, ids=repr)
    def test_copies_are_equal_and_hash_equal(self, term):
        for clone in (copy.copy(term), copy.deepcopy(term)):
            assert clone == term and hash(clone) == hash(term)
            assert type(clone) is type(term)

    def test_repr_eq_and_str_are_unchanged(self):
        assert [repr(term) for term in TERMS] == [
            "URI('http://a')",
            "Literal('42', datatype=URI('http://int'))",
            "Literal('bonjour', language='fr')",
            "Literal('plain')",
            "BlankNode('b1')",
        ]
        assert [str(term) for term in TERMS] == [
            "http://a", "42", "bonjour", "plain", "_:b1",
        ]
        assert URI("http://a") == URI("http://a") != Literal("http://a")
        assert Literal("42", datatype=URI("http://int")) != Literal("42")
        assert BlankNode("b1") != URI("b1")

    def test_pickled_set_crosses_hash_seeds(self, tmp_path):
        """A set pickled under one ``PYTHONHASHSEED`` and loaded under
        another holds the terms that process builds itself."""
        root = Path(repro.__file__).resolve().parent.parent
        path = tmp_path / "terms.pickle"
        build = (
            "from repro.rdf.terms import BlankNode, Literal, URI\n"
            "terms = [URI('http://a'), Literal('42', datatype=URI('http://int')),\n"
            "         Literal('bonjour', language='fr'), Literal('plain'),\n"
            "         BlankNode('b1')]\n"
        )
        dump = build + (
            "import pickle, sys\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps(set(terms)))\n"
        )
        load = build + (
            "import pickle, sys\n"
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "assert all(term in loaded for term in terms), loaded\n"
            "assert loaded == set(terms)\n"
            "assert {hash(t) for t in loaded} == {hash(t) for t in terms}\n"
            "print('ok')\n"
        )
        for seed, script in (("1", dump), ("2", load)):
            completed = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(root)},
                capture_output=True, text=True, timeout=60, check=True,
            )
        assert completed.stdout.split() == ["ok"]

    def test_never_equals_a_plain_tuple_of_its_fields(self):
        assert URI("a") != ("a",) and ("a",) != URI("a")
        assert not URI("a") == ("a",) and not ("a",) == URI("a")
        assert Literal("x") != ("x", None, None)
        assert ("x", None, None) != Literal("x")
        for term in TERMS:
            assert term != FIELDS[type(term)](term)
            assert term not in {FIELDS[type(term)](term)}

    def test_never_equals_a_term_of_another_kind(self):
        assert URI("a") != BlankNode("a") and BlankNode("a") != URI("a")
        assert len({URI("a"), BlankNode("a"), ("a",)}) == 3

    def test_ne_is_not_eq(self):
        values = TERMS + [copy.copy(t) for t in TERMS] + [
            FIELDS[type(t)](t) for t in TERMS
        ] + ["http://a", None]
        for left in values:
            for right in values:
                assert (left != right) is (not left == right), (left, right)

    @pytest.mark.parametrize(
        "compare", [operator.lt, operator.le, operator.gt, operator.ge],
        ids=["<", "<=", ">", ">="],
    )
    def test_terms_have_no_order(self, compare):
        for left, right in [
            (URI("a"), URI("b")),
            (Literal("1"), Literal("2")),
            (BlankNode("a"), BlankNode("a")),
            (URI("a"), ("b",)),
            (("b",), URI("a")),
        ]:
            with pytest.raises(TypeError):
                compare(left, right)

    def test_a_plain_tuple_is_not_a_term(self):
        assert not is_term(("a",))
        assert not is_term(("x", None, None))

    def test_hashing_runs_no_python_frame(self):
        """``hash(term)`` and an answer set over term tuples run in C:
        the profiler sees no Python-level call."""
        pool = [URI(f"http://e/{i}") for i in range(40)] + [
            Literal(str(i)) for i in range(20)
        ] + TERMS
        answers = [
            (pool[i % len(pool)], pool[(7 * i) % 45]) for i in range(1000)
        ]
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for term in TERMS:
                hash(term)
            distinct = set(answers)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert len(distinct) == len({(repr(a), repr(b)) for a, b in answers})
