from pathlib import Path

import pytest

from geolin.criteria import Linear2, Quadratic2
from geolin.document import (
    KINDS,
    DocumentError,
    load_document,
    parse_document,
)
from geolin.geometry import Christoffel, Geodesic2Coefficients
from geolin.kernel import integer, parse
from geolin.projection import ScalarCubic, ScalarGauge, SystemCubic2, SystemGauge
from geolin.transform import GeneralSystem2

SCALAR_DOC = """
# comment line
[system]
name = sample
kind = scalar-cubic

[coefficients]
E1 = "-1"  # inline comment
E3 = "1"

[gauge]
b = "0"
e = "1"

[transformation]
u = "x + y"
v = "x - y"

[metric]
p = "1"
r = "1"
"""


class TestParsing:
    def test_scalar_document_round_trip(self):
        doc = parse_document(SCALAR_DOC)
        assert doc.name == "sample"
        assert doc.kind == "scalar-cubic"
        assert doc.dim == 2
        assert doc.system() == ScalarCubic.make(E1=-1, E3=1)
        assert doc.gauge() == ScalarGauge.make(b=0, e=1)
        t = doc.transformation()
        assert t.components[0] == parse("x + y")
        metric = doc.metric()
        assert metric.g(1, 1) == integer(1)
        assert metric.g(1, 2).is_zero_literal()

    def test_omitted_coefficients_are_zero(self):
        doc = parse_document('[system]\nname = a\nkind = cubic-2\n')
        system = doc.system()
        for name in KINDS["cubic-2"].keys:
            assert getattr(system, name).is_zero_literal()

    def test_quoted_header_values_are_unquoted(self):
        doc = parse_document('[system]\nname = "cubic drift"\nkind = "cubic-2"\n')
        assert doc.name == "cubic drift"
        assert doc.kind == "cubic-2"

    def test_comment_hash_inside_quotes_survives(self):
        # the expression grammar has no '#', but a '#' after the closing
        # quote must still be stripped
        doc = parse_document(
            '[system]\nname = a\nkind = scalar-cubic\n'
            '[coefficients]\nE0 = "1/2" # half\n')
        assert doc.system().E0 == parse("1/2")

    def test_coordinates_must_match_kind(self):
        parse_document(
            '[system]\nname = a\nkind = cubic-2\ncoordinates = x y z\n')
        with pytest.raises(DocumentError):
            parse_document(
                '[system]\nname = a\nkind = cubic-2\ncoordinates = t u v\n')

    def test_every_kind_builds_its_type(self):
        built = {
            "scalar-cubic": ScalarCubic,
            "cubic-2": type(None),
            "quadratic-2": Quadratic2,
            "linear-2": Linear2,
            "geodesic-2": Geodesic2Coefficients,
            "geodesic-3": Christoffel,
            "general-2": GeneralSystem2,
        }
        from geolin.projection import SystemCubic2
        built["cubic-2"] = SystemCubic2
        for kind, cls in built.items():
            doc = parse_document(f"[system]\nname = a\nkind = {kind}\n")
            assert isinstance(doc.system(), cls), kind

    def test_geodesic3_keys_place_components(self):
        doc = parse_document(
            '[system]\nname = a\nkind = geodesic-3\n'
            '[coefficients]\nG2_13 = "x*y"\n')
        gamma = doc.system()
        assert gamma.gamma(2, 1, 3) == parse("x*y")
        assert gamma.gamma(2, 3, 1) == parse("x*y")
        assert gamma.gamma(1, 1, 1).is_zero_literal()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown kind"):
            parse_document("[system]\nname = a\nkind = bogus\n")

    def test_missing_name(self):
        with pytest.raises(DocumentError, match="name"):
            parse_document("[system]\nkind = scalar-cubic\n")

    def test_unknown_section(self):
        with pytest.raises(DocumentError, match="unknown section"):
            parse_document("[system]\nname = a\nkind = scalar-cubic\n[extra]\n")

    def test_unknown_coefficient_key(self):
        with pytest.raises(DocumentError, match="unknown coefficient key"):
            parse_document(
                '[system]\nname = a\nkind = scalar-cubic\n'
                '[coefficients]\nE7 = "1"\n')

    def test_unquoted_expression(self):
        with pytest.raises(DocumentError, match="double-quoted"):
            parse_document(
                '[system]\nname = a\nkind = scalar-cubic\n'
                '[coefficients]\nE0 = 1\n')

    def test_bad_expression_reports_line(self):
        with pytest.raises(DocumentError, match=":5:"):
            parse_document(
                '[system]\nname = a\nkind = scalar-cubic\n'
                '[coefficients]\nE0 = "1 +"\n')

    def test_duplicate_key(self):
        with pytest.raises(DocumentError, match="duplicate key"):
            parse_document(
                '[system]\nname = a\nkind = scalar-cubic\n'
                '[coefficients]\nE0 = "1"\nE0 = "2"\n')

    def test_duplicate_section(self):
        with pytest.raises(DocumentError, match="duplicate section"):
            parse_document(
                '[system]\nname = a\nkind = scalar-cubic\n[system]\n')

    def test_incomplete_transformation(self):
        with pytest.raises(DocumentError, match="missing"):
            parse_document(
                '[system]\nname = a\nkind = cubic-2\n'
                '[transformation]\nu = "x"\nv = "y"\n')

    def test_metric_on_pair_kind_rejected(self):
        with pytest.raises(DocumentError, match="metric"):
            parse_document(
                '[system]\nname = a\nkind = cubic-2\n[metric]\np = "1"\n')

    def test_gauge_on_connection_kind_rejected(self):
        with pytest.raises(DocumentError, match="gauge"):
            parse_document(
                '[system]\nname = a\nkind = geodesic-3\n[gauge]\nb = "1"\n')

    def test_content_before_section(self):
        with pytest.raises(DocumentError, match="before any section"):
            parse_document('name = a\n')

    def test_gauge_override_merges(self):
        doc = parse_document(
            '[system]\nname = a\nkind = cubic-2\n[gauge]\nG3_33 = "1"\n')
        merged = doc.gauge({"G1_12": parse("x")})
        assert merged == SystemGauge.make(G1_12="x", G3_33=1)
        replaced = doc.gauge({"G3_33": parse("0")})
        assert replaced == SystemGauge.make()
        with pytest.raises(DocumentError, match="unknown gauge key"):
            doc.gauge({"b": parse("1")})


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class TestCorpus:
    def test_all_corpus_documents_load(self):
        paths = sorted(CORPUS.glob("*.ini"))
        assert len(paths) == 11
        for path in paths:
            doc = load_document(str(path))
            doc.system()
            doc.gauge()
            if doc.transformation_components is not None:
                doc.transformation()
            if doc.metric_entries is not None:
                doc.metric()

    def test_tangled_document_matches_its_map(self):
        from geolin.transform import coefficients_from_transformation
        doc = load_document(str(CORPUS / "sys-ex5.ini"))
        assert doc.system() == coefficients_from_transformation(
            doc.transformation())


TABLES = (ScalarCubic, SystemCubic2, ScalarGauge, SystemGauge,
          Geodesic2Coefficients, Quadratic2, Linear2, GeneralSystem2)


@pytest.mark.parametrize("table", TABLES, ids=lambda table: table.__name__)
def test_coefficient_table_make(table):
    keys = table.keys()
    empty = table.make()
    assert list(empty.entries()) == list(keys)
    assert all(value.is_zero_literal() for value in empty.entries().values())
    # constants pass the coordinate checks of Quadratic2 and Linear2
    values = [integer(n + 1) for n in range(len(keys))]
    by_position = table.make(*values)
    assert by_position == table.make(**dict(zip(keys, values)))
    # entries hand back the stored values themselves, not copies
    assert all(got is want for got, want in
               zip(by_position.entries().values(), values))
    with pytest.raises(TypeError, match="unknown coefficients"):
        table.make(not_a_key=1)
    with pytest.raises(TypeError, match="unknown coefficients"):
        table.make(*values, 1)
    with pytest.raises(TypeError):
        table.make(1, **{keys[0]: 1})
    for kind in KINDS.values():
        if kind.build == table.make:
            assert kind.keys == keys
        if kind.gauge is table:
            assert kind.gauge_keys == keys
