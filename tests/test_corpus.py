"""Byte-identity of the CLI: every call pinned by ``tests/golden/corpus.json``
still gives the same exit code, stdout and stderr. ``tests/corpus_digest.py``
lists the calls and rewrites the file."""

from corpus_digest import answer, calls, load


def test_corpus_file_lists_every_call_of_the_seeds():
    assert list(load()) == calls()


def test_every_cli_answer_matches_its_corpus_digest():
    changed = [call for call, digest in load().items() if answer(call) != digest]
    assert not changed, f"{len(changed)} answers changed, first: " + "; ".join(changed[:10])
