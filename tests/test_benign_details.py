"""Benign-app mechanics in detail: the save dances, media transforms,
and scope discipline that §V-F's zero-score results depend on."""

import random

import pytest

from repro.benign import (Chrome, Dropbox, MicrosoftWord, MusicBee,
                          PiriformCCleaner, ResophNotes, SumatraPdf,
                          UTorrent)
from repro.benign.base import temp_save_dance
from repro.core import CryptoDropMonitor
from repro.corpus import generate
from repro.corpus.content import make_docx
from repro.fs import DOCUMENTS, OperationRecorder, OpKind, \
    VirtualFileSystem
from repro.magic import identify_name
from repro.sandbox import VirtualMachine, run_benign


class TestTempSaveDance:
    @pytest.fixture
    def setup(self):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        pid = vfs.processes.spawn("office.exe").pid
        original = make_docx(random.Random(1), 8000)
        vfs.peek_write(DOCUMENTS / "report.docx", original)
        return vfs, pid, original

    def test_dance_replaces_content_atomically(self, setup):
        vfs, pid, original = setup

        class Ctx:
            def __init__(self, vfs, pid):
                self.vfs, self.pid = vfs, pid

            def write_file(self, path, data, chunk=None):
                self.vfs.write_file(self.pid, path, data, chunk)

            def rename(self, src, dst, overwrite=True):
                self.vfs.rename(self.pid, src, dst, overwrite)

        new_version = original + b"PK_extra"
        temp_save_dance(Ctx(vfs, pid), DOCUMENTS / "report.docx",
                        new_version, random.Random(2))
        assert vfs.peek_read(DOCUMENTS / "report.docx") == new_version
        leftovers = [n for n in vfs.listdir(pid, DOCUMENTS)
                     if n.startswith("~WRL")]
        assert not leftovers

    def test_dance_emits_clobbering_rename(self, setup):
        vfs, pid, original = setup
        recorder = OperationRecorder(kinds={OpKind.RENAME})
        vfs.filters.attach(recorder)

        class Ctx:
            def __init__(self, vfs, pid):
                self.vfs, self.pid = vfs, pid

            def write_file(self, path, data, chunk=None):
                self.vfs.write_file(self.pid, path, data, chunk)

            def rename(self, src, dst, overwrite=True):
                self.vfs.rename(self.pid, src, dst, overwrite)

        temp_save_dance(Ctx(vfs, pid), DOCUMENTS / "report.docx",
                        original + b"x", random.Random(3))
        assert len(recorder.records) == 1
        assert recorder.records[0].dest_path == DOCUMENTS / "report.docx"


class TestScopeDiscipline:
    """Apps whose churn lives outside Documents must be invisible."""

    @pytest.mark.parametrize("app_cls", [Chrome, UTorrent])
    def test_download_traffic_outside_documents(self, machine, app_cls):
        result = run_benign(machine, app_cls(1))
        assert result.completed, result.error
        assert result.final_score == 0.0

    def test_word_saves_leave_valid_docx(self, machine):
        app = MicrosoftWord(7)
        app.prepare(machine)
        monitor = CryptoDropMonitor(machine.vfs).attach()
        outcome = machine.run_program(app)
        assert outcome.completed
        saved = machine.vfs.peek_read(
            machine.docs_root / "New Document.docx")
        assert identify_name(saved) == "docx"
        monitor.detach()
        machine.revert()

    def test_dropbox_sync_rewrites_stay_similar(self, machine):
        result = run_benign(machine, Dropbox(5))
        assert result.completed, result.error
        assert "similarity" not in result.flags
        assert result.final_score < 30

    def test_ccleaner_stays_within_deletion_allowance(self, machine):
        result = run_benign(machine, PiriformCCleaner(3))
        assert result.completed
        assert result.final_score == 0.0

    def test_readonly_consumers_never_tracked(self, machine):
        result = run_benign(machine, SumatraPdf(3))
        assert result.final_score == 0.0

    def test_tag_editor_keeps_similarity(self, machine):
        result = run_benign(machine, MusicBee(3))
        assert result.completed
        assert "similarity" not in result.flags

    def test_note_taking_low_entropy_writes(self, machine):
        result = run_benign(machine, ResophNotes(3))
        assert result.completed
        assert result.final_score <= 15.0


class _ListdirResophNotes(ResophNotes):
    """The original listing: the first three entries of ``Notes``,
    subfolders included — the op-stream oracle for the fixed app."""

    def run(self, ctx) -> None:
        rng = random.Random(self.seed)
        notes = ctx.docs_root / "Notes"
        for name in list(ctx.listdir(notes))[:3]:
            path = notes / name
            text = ctx.read_file(path)
            ctx.write_file(path, text + b"\nedited: follow up tomorrow\n")
        ctx.write_file(notes / f"note{rng.randint(10, 99)}.txt",
                       b"quick capture: call the office\n" * 4)


def _notes_ops(machine, app):
    recorder = OperationRecorder()
    machine.vfs.filters.attach(recorder)
    try:
        result = run_benign(machine, app)
    finally:
        machine.vfs.filters.detach(recorder)
    return result, [(r.kind, str(r.path), str(r.dest_path), r.size)
                    for r in recorder.records]


class TestResophNotesListing:
    def test_skips_subfolders_of_notes(self):
        # corpus seed 1337 at perfbench scale gives Notes\ subfolders
        # that sort among its first three entries
        machine = VirtualMachine(generate(1337, 1275, 128))
        machine.snapshot()
        notes = DOCUMENTS / "Notes"
        first = list(machine.vfs._resolve_dir(notes).names())[:3]
        assert any(machine.vfs.peek_stat(notes / n).is_dir for n in first)
        result = run_benign(machine, ResophNotes(0))
        assert result.error is None and result.completed
        assert not result.detected

    def test_op_stream_unchanged_on_default_seed(self):
        machine = VirtualMachine(generate(2016, 1275, 128))
        machine.snapshot()
        fixed, fixed_ops = _notes_ops(machine, ResophNotes(0))
        listed, listed_ops = _notes_ops(machine, _ListdirResophNotes(0))
        assert fixed.error is None and listed.error is None
        assert fixed_ops and fixed_ops == listed_ops
        assert fixed.final_score == listed.final_score


class TestBenignDeterminism:
    def test_same_seed_same_score(self, machine):
        first = run_benign(machine, MicrosoftWord(11))
        second = run_benign(machine, MicrosoftWord(11))
        assert first.final_score == second.final_score
