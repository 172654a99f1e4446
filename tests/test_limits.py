import threading

import pytest

from symfunc import limits
from symfunc.characters import character_table
from symfunc.errors import DegreeCapError
from symfunc.matrixreps import set_rep_caps, specht_module


def run_in_thread(fn):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return out


def test_defaults_and_raised():
    assert limits.Limits() == limits.Limits(
        ring=20, table=8, coefficient=12, regular=6, specht=5, young=6
    )
    assert limits.Limits().raised(9) == limits.Limits(
        ring=20, table=9, coefficient=12, regular=9, specht=9, young=9
    )
    with pytest.raises(ValueError):
        limits.Limits(table=-1)


def test_scope_is_restored_on_exit_and_on_error():
    with pytest.raises(DegreeCapError):
        with limits.scoped(limits.Limits().raised(9)):
            assert len(character_table(9)) == 30
            limits.check("ring", 21)
    assert limits.current() == limits.Limits()
    with pytest.raises(DegreeCapError, match="character tables are capped at n <= 8"):
        character_table(9)


def test_scope_holds_in_its_own_thread_only():
    def scoped_table():
        with limits.scoped(limits.Limits().raised(9)):
            return character_table(9)

    (table,) = run_in_thread(scoped_table)
    assert table[0][0] == 1 and len(table) == 30
    with pytest.raises(DegreeCapError):
        character_table(9)


def test_set_rep_caps_sets_the_default_for_every_thread():
    try:
        set_rep_caps(specht=6)
        (rep,) = run_in_thread(lambda: specht_module((3, 2, 1)))
        assert rep.dim == 16
    finally:
        set_rep_caps(specht=5)
    with pytest.raises(DegreeCapError):
        specht_module((3, 2, 1))
