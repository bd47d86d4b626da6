"""Unit tests for the RDF term model."""

import copy
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
    """A term computes its hash once, to the value the generated
    dataclass hash returned, and pickles through its constructor, so a
    process under another hash seed hashes it anew."""

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
