"""Utility application simulators.

7-zip is the paper's one true positive among benign software (§V-F):
archiving the documents directory reads every file type and emits one
giant high-entropy stream — "bulk transformation", exactly what
CryptoDrop exists to flag.  The paper calls that detection "normal,
expected, desirable".
"""

from __future__ import annotations

import random

from ..fs.errors import FsError
from ..fs.paths import APPDATA, TEMP
from .base import BenignApplication

__all__ = ["SevenZip", "AvastAntiVirus", "PiriformCCleaner", "Launchy",
           "Flux", "PhraseExpress", "ResophNotes", "StickyNotes",
           "SumatraPdf"]


class SevenZip(BenignApplication):
    """``7z a Documents.7z <documents>``: the expected benign detection.

    Reads every file (funneling), writes one solid high-entropy archive
    stream beside the tree (entropy delta) — CryptoDrop suspends it
    mid-archive and asks the user."""

    name = "7z.exe"
    paper_detected = True

    def run(self, ctx) -> None:
        rng = random.Random(self.seed)
        archive = ctx.docs_root / "Documents.7z"
        handle = ctx.open(archive, "w", create=True)
        try:
            ctx.write(handle, b"7z\xbc\xaf\x27\x1c\x00\x04"
                              + rng.randbytes(24))
            pending = 0
            for dirpath, _dirs, files in ctx.walk(ctx.docs_root):
                for name in files:
                    if name == archive.name:
                        continue
                    try:
                        data = ctx.read_file(dirpath / name, 65536)
                    except FsError:
                        continue
                    pending += len(data)
                    # solid compression: emit in 64 KiB blocks
                    while pending >= 65536:
                        ctx.write(handle, rng.randbytes(65536))
                        pending -= 65536 + 24576  # modelled ratio ~0.73
            if pending > 0:
                ctx.write(handle, rng.randbytes(max(1024, pending)))
        finally:
            if not handle.closed:
                ctx.close(handle)


class AvastAntiVirus(BenignApplication):
    """On-demand scan: reads a slice of every file, writes nothing."""

    name = "AvastSvc.exe"

    def run(self, ctx) -> None:
        scanned = 0
        for dirpath, _dirs, files in ctx.walk(ctx.docs_root):
            for name in files:
                try:
                    ctx.read_file(dirpath / name, 32768)
                except FsError:
                    continue
                scanned += 1
                if scanned >= 400:
                    return


class PiriformCCleaner(BenignApplication):
    """Cleans temp locations; touches a couple of stray .tmp files."""

    name = "CCleaner64.exe"

    def prepare(self, machine) -> None:
        rng = random.Random(self.seed ^ 0xCC)
        for i in range(6):
            machine.vfs.peek_write(TEMP / f"junk{i}.tmp",
                                   rng.randbytes(2000), parents=True)
        for i in range(2):
            machine.vfs.peek_write(
                machine.docs_root / f"~temp{i}.tmp", rng.randbytes(800),
                parents=True)

    def run(self, ctx) -> None:
        for name in list(ctx.listdir(ctx.temp_root)):
            if name.endswith(".tmp"):
                try:
                    ctx.delete(ctx.temp_root / name)
                except FsError:
                    pass
        for name in list(ctx.listdir(ctx.docs_root)):
            if name.endswith(".tmp"):
                try:
                    ctx.delete(ctx.docs_root / name)
                except FsError:
                    pass


class Launchy(BenignApplication):
    """Keystroke launcher: indexes names only (directory listings)."""

    name = "Launchy.exe"

    def run(self, ctx) -> None:
        count = 0
        for _dirpath, _dirs, files in ctx.walk(ctx.docs_root):
            count += len(files)
        ctx.write_file(APPDATA / "Launchy" / "index.dat",
                       f"indexed={count}\n".encode() * 20)

    def prepare(self, machine) -> None:
        machine.vfs._ensure_dirs(APPDATA / "Launchy")


class Flux(BenignApplication):
    """Changes screen temperature; its disk footprint is one config."""

    name = "flux.exe"

    def run(self, ctx) -> None:
        ctx.mkdir(APPDATA / "flux", parents=True)
        ctx.write_file(APPDATA / "flux" / "settings.ini",
                       b"[prefs]\nlat=29.6\nlon=-82.3\ntemp=3400\n")


class PhraseExpress(BenignApplication):
    """Text expander: appends snippets to its phrase file."""

    name = "phraseexpress.exe"

    def prepare(self, machine) -> None:
        machine.vfs.peek_write(
            machine.docs_root / "PhraseExpress" / "phrases.pxp",
            b"<phrases>\n" + b"<p>sig1</p>\n" * 40, parents=True)

    def run(self, ctx) -> None:
        path = ctx.docs_root / "PhraseExpress" / "phrases.pxp"
        handle = ctx.open(path, "rw")
        try:
            existing = ctx.read(handle)
            ctx.seek(handle, len(existing))
            ctx.write(handle, b"<p>new snippet text</p>\n" * 3)
        finally:
            ctx.close(handle)


class ResophNotes(BenignApplication):
    """Plain-text note taking inside the documents tree."""

    name = "ResophNotes.exe"

    def prepare(self, machine) -> None:
        for i in range(5):
            machine.vfs.peek_write(
                machine.docs_root / "Notes" / f"note{i}.txt",
                f"note {i}\nremember the milk\n".encode() * 10,
                parents=True)

    def run(self, ctx) -> None:
        rng = random.Random(self.seed)
        notes = ctx.docs_root / "Notes"
        # the first three regular files in listing order: corpora may
        # give Notes\ subfolders.  walk's first step is one listdir, so
        # the op stream is the same as listing the folder directly.
        _, _, files = next(ctx.walk(notes))
        for name in files[:3]:
            path = notes / name
            text = ctx.read_file(path)
            ctx.write_file(path, text + b"\nedited: follow up tomorrow\n")
        ctx.write_file(notes / f"note{rng.randint(10, 99)}.txt",
                       b"quick capture: call the office\n" * 4)


class StickyNotes(BenignApplication):
    """Windows Sticky Notes: one OLE2-ish store in AppData."""

    name = "StikyNot.exe"

    def run(self, ctx) -> None:
        ctx.mkdir(APPDATA / "Microsoft" / "Sticky Notes", parents=True)
        store = (b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + bytes(504)
                 + "buy stamps\x00".encode("utf-16-le") * 30)
        ctx.write_file(APPDATA / "Microsoft" / "Sticky Notes"
                       / "StickyNotes.snt", store)


class SumatraPdf(BenignApplication):
    """Lightweight PDF reading: pure consumption."""

    name = "SumatraPDF.exe"

    def run(self, ctx) -> None:
        opened = 0
        for dirpath, _dirs, files in ctx.walk(ctx.docs_root):
            for name in files:
                if name.lower().endswith(".pdf"):
                    ctx.read_file(dirpath / name, 16384)
                    opened += 1
                    if opened >= 10:
                        return
