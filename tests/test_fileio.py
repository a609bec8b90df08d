import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import coords, read_set_json
from specdbl import fileio, regularity
from specdbl.diagnostics import example_counterexample
from specdbl.fileio import (
    FileFormatError,
    _csv_lines,
    _rows_json,
    read_set_file,
    read_trace_file,
    write_set_file,
    write_trace_file,
)
from specdbl.groups import ElementSet, FiniteAbelianGroup, random_subset, subgroup_span
from specdbl.refine import RefineConfig, audit_trace, refine_theorem1, refine_theorem2


def test_set_file_round_trip_is_byte_identical(tmp_path):
    g = FiniteAbelianGroup((4, 3, 2))
    a = random_subset(g, 9, seed=5)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_set_file(first, a, {"kind": "random", "seed": 5})
    loaded, meta = read_set_file(first)
    assert loaded == a
    assert meta == {"kind": "random", "seed": 5}
    write_set_file(second, loaded, meta)
    assert first.read_bytes() == second.read_bytes()


def test_set_file_layout(tmp_path):
    g = FiniteAbelianGroup((2, 2))
    a = random_subset(g, 2, seed=1)
    path = tmp_path / "a.json"
    write_set_file(path, a)
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1 and " " not in text
    doc = json.loads(text)
    assert doc["format"] == "specdbl-set"
    assert doc["version"] == 2
    assert doc["orders"] == [2, 2]
    assert all(len(row) == 2 for row in doc["elements"])


ALL = "all"  # every element of the group


@pytest.mark.parametrize("orders, members", [
    ((3, 2), []),
    ((5, 7), [34]),
    ((10,), ALL),  # coordinates 0-9: one digit
    ((11,), ALL),  # 9 then 10: two digits
    ((100,), ALL),  # 99: still two
    ((101,), ALL),  # 99 then 100: three
    ((102,), ALL),  # 100 then 101
    ((10, 101, 3), ALL),  # one and three digit coordinates in a row
    ((1, 4, 1), ALL),  # factors of order 1
    ((2**20,), [0, 9, 10, 99, 100, 101, 999_999, 2**20 - 1]),
    ((13, 13, 13), 300),
    ((2,) * 16, 2000),
], ids=["empty", "one-row", "9", "9-10", "99", "99-100", "100-101", "mixed-widths",
        "order-1", "2^20", "Z_13^3", "Z_2^16"])
def test_rows_are_the_bytes_json_dumps_writes(orders, members):
    g = FiniteAbelianGroup(orders)
    if members == ALL:
        s = ElementSet(g, np.ones(g.size, dtype=bool))
    elif isinstance(members, int):
        s = random_subset(g, members, seed=7)
    else:
        s = ElementSet.from_indices(g, members)
    rows = coords(s)
    text = _rows_json(s)
    assert text == json.dumps(rows, separators=(",", ":"))
    assert _csv_lines(text) == "\n".join(",".join(map(str, row)) for row in rows)


def test_rows_hold_no_int64_copy_of_the_coordinates():
    # the coordinates are decoded chunk by chunk into uint8, and the cells
    # and their mask are freed before the text is made: the peak stays below
    # the int64 (m, rank) array that decoding them all at once would hold
    import tracemalloc

    g = FiniteAbelianGroup((2,) * 18)
    s = ElementSet(g, np.ones(g.size, dtype=bool))
    tracemalloc.start()
    try:
        text = _rows_json(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.startswith("[[0,0,") and text.endswith(",1,1]]")
    assert peak < g.size * g.rank * 8


def test_set_and_trace_files_are_json_dumps_of_their_documents(tmp_path):
    # each document is the one compact, key-sorted line json.dumps writes
    g = FiniteAbelianGroup((13, 13, 13))
    a = random_subset(g, 300, seed=2)
    path = tmp_path / "a.json"
    rows = write_set_file(path, a, {"kind": "random", "note": [1.5, None, "x"]})
    doc = {"format": "specdbl-set", "version": 2, "orders": [13, 13, 13],
           "elements": coords(a), "metadata": {"kind": "random", "note": [1.5, None, "x"]}}
    assert path.read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert rows == json.dumps(coords(a), separators=(",", ":"))

    ex = example_counterexample(3)
    result = refine_theorem1(ex.members, RefineConfig(epsilon=0.4, delta=0.3, seed=1))
    write_trace_file(path, result, ex.members)
    text = path.read_text()
    doc = json.loads(text)
    assert doc["input_elements"] == [list(row) for row in coords(ex.members)]
    assert doc["a_star"] == [list(row) for row in coords(result.a_star)]
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# a version 1 set file, indented by two spaces, as the version 1 writer wrote
# random_subset(FiniteAbelianGroup((4, 3)), 3, seed=5)
V1_SET = """{
  "elements": [
    [
      0,
      0
    ],
    [
      2,
      1
    ],
    [
      0,
      2
    ]
  ],
  "format": "specdbl-set",
  "metadata": {
    "kind": "random",
    "seed": 5,
    "size": 3
  },
  "orders": [
    4,
    3
  ],
  "version": 1
}
"""


def test_version_1_set_file_reads_and_rewrites_as_version_2(tmp_path):
    old, new, again = tmp_path / "v1.json", tmp_path / "v2.json", tmp_path / "again.json"
    old.write_text(V1_SET)
    members, meta = read_set_file(old)
    assert members == random_subset(FiniteAbelianGroup((4, 3)), 3, seed=5)
    assert meta == {"kind": "random", "seed": 5, "size": 3}
    write_set_file(new, members, meta)
    assert json.loads(new.read_text()) == {**json.loads(V1_SET), "version": 2}
    write_set_file(again, *read_set_file(new))
    assert again.read_bytes() == new.read_bytes()


ROWS = "must contain coordinate rows of length 2"


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("elements"), "elements"),
    (lambda d: d.pop("orders"), "orders"),
    (lambda d: d.update(format="something-else"), "format"),
    (lambda d: d.update(version=9), "version"),
    (lambda d: d.update(orders=[2, 0]), "orders"),
    (lambda d: d.update(elements=[[1, 2, 3]]), "elements"),
    (lambda d: d.update(elements=[[5, 0]]), "elements"),
    (lambda d: d.update(metadata=7), "metadata"),
    (lambda d: d.update(elements=[[0, 1], [1, -1]]), "coordinate -1 out of range for Z_2"),
    (lambda d: d.update(elements=[[10**30, 0]]), "out of range for Z_2"),
    pytest.param(lambda d: d.update(elements=[[0, 1], [True, 0]]), ROWS, id="bool-coordinate"),
    pytest.param(lambda d: d.update(elements=[[0.5, 0]]), ROWS, id="float-coordinate"),
    pytest.param(lambda d: d.update(elements=[[0, "1"]]), ROWS, id="string-coordinate"),
    pytest.param(lambda d: d.update(elements=[[None, 0]]), ROWS, id="null-coordinate"),
    pytest.param(lambda d: d.update(elements=[[0, 1], [1]]), ROWS, id="ragged-row"),
    pytest.param(lambda d: d.update(elements=[[[0], 1]]), ROWS, id="nested-list"),
    pytest.param(lambda d: d.update(elements=[(0, 1), 3]), ROWS, id="row-not-a-list"),
])
def test_malformed_set_files_are_reported(tmp_path, mutate, needle):
    g = FiniteAbelianGroup((2, 2))
    a = random_subset(g, 2, seed=1)
    path = tmp_path / "a.json"
    write_set_file(path, a)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=needle):
        read_set_file(path)


# every group shape the benchmark workloads read, and two small ones
READ_GROUPS = [(2,) * 16, (2,) * 18, (32, 32, 2), (13, 13, 13), (3, 5, 11, 13), (2, 2), (101, 3)]
# row texts of Z_2 x Z_2 that read, or that both readers refuse
ROW_TEXTS = ["[[0,1],[1,1]]", "[]", "[ [ 1 ,\n 0 ] ,\r\n\t[0,0] ]", "[[-0,1]]", "[[01,1]]",
             "[[0,1],]", "[[0 1]]", "[[0,,1]]", "[[1e0,1]]", "[[1.0,1]]", "[[0,1]", "[[0,1],[1]]",
             "[[-1,0]]", "[[2,0]]", "[[-,1]]", "[[1-0,1]]", "[[--1,1]]", "[[0,1],[1,0]]]", "[[]]",
             "[[true,0]]", "[[null,0]]", '[[0,"1"]]', "[[[0],1]]", "[[0,1],3]", "[0,1]",
             f"[[{10**30},0]]", f"[[0,-{10**19}]]", "[[1,0],[0,1]],[1,1]", "{}", "7", '"[[0,1]]"',
             # at the one-digit boundary: a two-digit number among one-digit
             # ones, a lone "-", "-0", "01" and whitespace inside a row
             "[[0,1],[10,1]]", "[[0,1],[-,0]]", "[[-]]", "[[1,-0],[0,1]]", "[[1,01]]",
             "[[1 ,0],[0,\t1]]", "[[1 1]]"]
# row texts of Z_101 x Z_3, where a "-" or a zero read as a digit would give a
# coordinate in range
WIDE_ROW_TEXTS = ["[[100,2],[10,0]]", "[[1-1,0]]", "[[--5,0]]", "[[-5,0]]", "[[007,1]]",
                  "[[70,01]]", "[[1,2],[3,0]]", "[[1,2],[10,0],[3,1]]", "[[5,-],[1,1]]",
                  "[[-0,1]]", "[[01,1]]", "[[1 ,2],[3,\n0]]", "[[1 0,2]]"]


def _set_document(draw, orders, rows=None) -> str:
    """A set file's text as another writer might lay it out: its keys in any
    order, any separators and whitespace, the rows' text given or drawn."""
    group = FiniteAbelianGroup(orders)
    members = random_subset(group, draw(st.integers(0, min(group.size, 40))),
                            seed=draw(st.integers(0, 2**16)))
    sep = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")]))
    indent = draw(st.sampled_from([None, 2]))
    if rows is None:
        cells = json.dumps(coords(members), separators=(",", ":")).replace("]", " ] ")
        rows = "".join(draw(st.sampled_from(["", " ", "\n", "\t", "\r\n"])) if c == " " else c
                       for c in cells.replace("[", " [ ").replace(",", " , "))
    parts = {"format": '"specdbl-set"', "version": draw(st.sampled_from(["2", "1"])),
             "orders": json.dumps(list(orders), separators=sep, indent=indent),
             # a nested key of a row field's name, and non-ASCII text
             "metadata": json.dumps({"elements": [[9]], "note": "größe \u2203"}, separators=sep,
                                    indent=indent, ensure_ascii=draw(st.booleans())),
             "elements": rows}
    keys = draw(st.permutations(sorted(parts)))
    return "{" + sep[0].join(f'"{key}"{sep[1]}{parts[key]}' for key in keys) + "}\n"


def _read_both(path):
    """(new, reference) results of reading ``path``: (set, metadata), or the
    FileFormatError's class and whether it calls the text invalid JSON."""
    out = []
    for read in (read_set_file, read_set_json):
        try:
            out.append(read(path))
        except FileFormatError as exc:
            out.append((FileFormatError, "invalid JSON" in str(exc)))
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_numpy_reader_reads_what_json_loads_reads(tmp_path, data):
    # either both readers give the same set and metadata, or both refuse the
    # document with a FileFormatError
    orders = data.draw(st.sampled_from(READ_GROUPS))
    rows = data.draw(st.sampled_from([None, None] + ROW_TEXTS)) if orders == (2, 2) else None
    path = tmp_path / "a.json"
    path.write_text(_set_document(data.draw, orders, rows), encoding="utf-8")
    new, reference = _read_both(path)
    assert new == reference


@pytest.mark.parametrize("rows, orders", [(rows, "[2,2]") for rows in ROW_TEXTS]
                         + [(rows, "[101,3]") for rows in WIDE_ROW_TEXTS])
def test_each_row_text_reads_as_json_loads_reads_it(tmp_path, rows, orders):
    path = tmp_path / "a.json"
    path.write_text('{"metadata":{"n":"ü"},"elements":' + rows + ',"format":"specdbl-set",'
                    f'"orders":{orders},"version":2}}')
    new, reference = _read_both(path)
    assert new == reference


def test_the_last_of_duplicate_keys_wins(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"elements":[[5,5]],"format":"specdbl-set","metadata":{},"orders":[2,2],'
                    '"version":2,"elements":[[0,1]]}')
    new, reference = _read_both(path)
    assert new == reference
    assert new[0] == ElementSet.from_coords(FiniteAbelianGroup((2, 2)), [(0, 1)])


def test_rows_come_back_as_one_int64_array():
    text = '{"elements": [[0, 12], [-0,\n7]], "other": [[1]]}'
    doc = fileio._object(text)
    assert doc["elements"].dtype == np.int64 and doc["elements"].tolist() == [[0, 12], [0, 7]]
    assert doc["other"] == [[1]]


def test_from_coords_takes_an_array_without_iterating_it():
    class NoIteration(np.ndarray):
        def __iter__(self):
            raise AssertionError("from_coords iterated the rows")

    g = FiniteAbelianGroup((2,) * 16)
    a = random_subset(g, 2000, seed=3)
    rows = g.decode_indices(a.indices())
    assert ElementSet.from_coords(g, rows.view(NoIteration)) == a


def test_set_files_ignore_keys_the_writer_does_not_write(tmp_path):
    g = FiniteAbelianGroup((2, 3))
    a = random_subset(g, 3, seed=1)
    path = tmp_path / "a.json"
    write_set_file(path, a, {"note": "x"})
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "surprise": [1, "two"], "comment": None}))
    members, metadata = read_set_file(path)
    assert members == a
    assert metadata == {"note": "x"}


def test_broken_json_reports_the_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "format": "specdbl-set",\n  "version": oops\n}\n')
    with pytest.raises(FileFormatError, match="line 3"):
        read_set_file(path)


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"x"', "null"])
def test_a_document_that_is_no_object_is_reported(tmp_path, text):
    path = tmp_path / "a.json"
    path.write_text(text)
    with pytest.raises(FileFormatError, match="top level must be an object$"):
        read_set_file(path)


def test_missing_file(tmp_path):
    with pytest.raises(FileFormatError, match="cannot read"):
        read_set_file(tmp_path / "nope.json")


def test_trace_file_round_trip(tmp_path):
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem1(ex.members, cfg)
    path = tmp_path / "trace.json"
    written = write_trace_file(path, result, ex.members)

    loaded, original, stored_audit = read_trace_file(path)
    assert original == ex.members
    assert loaded == result
    assert written.to_dict() == stored_audit
    recomputed = audit_trace(loaded, original)
    assert recomputed.to_dict() == stored_audit
    assert recomputed.ok


def test_trace_file_layout(tmp_path):
    ex = example_counterexample(3)
    result = refine_theorem1(ex.members, RefineConfig(epsilon=0.4, delta=0.3, seed=1))
    path = tmp_path / "trace.json"
    write_trace_file(path, result, ex.members)
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1 and " " not in text
    doc = json.loads(text)
    assert doc["version"] == 6
    assert doc["config"] == {"delta": 0.3, "epsilon": 0.4, "max_iterations": 500, "seed": 1}
    assert "initial_size" not in doc
    assert doc["measured"] == {"spec_size": 8, "sumset_size": 8, "spec_rho_size": 8, "gate_size": 8}
    # a step stores what the run observed; the reader derives the rest
    assert all(set(step) == {"spec_size", "gate_size", "verdict_status", "upper_bound",
                             "witness_value", "new_mean", "minor_rows", "minor_cols"}
               for step in doc["steps"])


def _halved(matrix, witness, lam):
    """extract_minor with the minor's mean halved, so that no minor makes progress."""
    ext = regularity.extract_minor(matrix, witness, lam)
    return dataclasses.replace(ext, new_mean=abs(complex(matrix.entries.mean())) / 2)


def test_trace_file_round_trip_rebuilds_every_step(tmp_path, monkeypatch):
    # the reader derives each step's action, rho, rho_next and a_size from the
    # stored observations; on runs that take every action it rebuilds the
    # run's own steps
    plane = subgroup_span(FiniteAbelianGroup((2,) * 4), [(1, 0, 0, 0), (0, 1, 0, 0)])
    z105 = random_subset(FiniteAbelianGroup((3, 5, 7)), 50, seed=3)
    runs = [
        (refine_theorem1, z105, RefineConfig(epsilon=0.2, delta=0.3, seed=1)),
        (refine_theorem2, random_subset(FiniteAbelianGroup((3, 3, 3)), 12, seed=0),
         RefineConfig(epsilon=0.2, delta=0.3, seed=1)),
        (refine_theorem2, example_counterexample(3).members,
         RefineConfig(epsilon=0.4, delta=0.3, seed=1, max_iterations=1)),
        (refine_theorem1, plane, RefineConfig(epsilon=1e-9, delta=0.3)),
    ]
    seen = set()
    for i, (run, members, cfg) in enumerate(runs):
        result = run(members, cfg)
        path = tmp_path / f"trace{i}.json"
        write_trace_file(path, result, members)
        loaded, original, _ = read_trace_file(path)
        assert loaded.trace == result.trace and loaded == result
        seen.update(s.action for s in result.trace)
    assert seen == {"minor", "growth", "finish", "abort"}

    # an irregular verdict whose minor the run does not take stores it too
    monkeypatch.setattr("specdbl.refine.extract_minor", _halved)
    members = example_counterexample(3).members
    result = refine_theorem1(members, RefineConfig(epsilon=0.4, delta=0.3, seed=1))
    (step,) = result.trace
    assert step.action == "finish" and step.verdict_status == "irregular"
    path = tmp_path / "untaken.json"
    write_trace_file(path, result, members)
    assert json.loads(path.read_text())["steps"][0]["minor_rows"] == step.minor_rows
    assert read_trace_file(path)[0].trace == result.trace


def test_trace_file_rejects_mismatched_groups(tmp_path):
    ex = example_counterexample(2)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem1(ex.members, cfg)
    other = random_subset(FiniteAbelianGroup((5, 5)), 4, seed=0)
    with pytest.raises(ValueError, match="different group"):
        write_trace_file(tmp_path / "t.json", result, other)


def test_trace_file_schema_errors(tmp_path):
    ex = example_counterexample(2)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem1(ex.members, cfg)
    path = tmp_path / "trace.json"
    write_trace_file(path, result, ex.members)

    doc = json.loads(path.read_text())
    doc["theorem"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="theorem"):
        read_trace_file(path)

    doc["theorem"] = 1
    doc["steps"][0]["surprise"] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="step 0"):
        read_trace_file(path)

    del doc["steps"][0]["surprise"]
    doc["config"]["epsilon"] = 2.0
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="config"):
        read_trace_file(path)

    doc["config"]["epsilon"] = 0.4
    doc["terminated"] = "gave_up"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="terminated"):
        read_trace_file(path)


def test_tampered_trace_fails_its_audit(tmp_path):
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem1(ex.members, cfg)
    path = tmp_path / "trace.json"
    write_trace_file(path, result, ex.members)

    doc = json.loads(path.read_text())
    doc["rho_star"] = 0.2
    path.write_text(json.dumps(doc))
    loaded, original, stored_audit = read_trace_file(path)
    recomputed = audit_trace(loaded, original)
    assert not recomputed.ok
    assert recomputed.to_dict() != stored_audit
