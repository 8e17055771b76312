"""Every mutant of the kept table fails its named test file."""

from mutants import MUTANTS, SURVIVORS, ROOT, run_table


def test_rows_name_one_place_and_a_test_file():
    for m in MUTANTS + SURVIVORS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.id
        assert m.old != m.new and (ROOT / m.test).is_file(), m.id
    ids = [m.id for m in MUTANTS + SURVIVORS]
    assert len(set(ids)) == len(ids)


def test_every_mutant_is_killed():
    codes = run_table()
    assert {m.id: codes[m.id] for m in MUTANTS} == {m.id: 1 for m in MUTANTS}
