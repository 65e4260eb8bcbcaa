"""ProcFS against an eager reference model.

The real :class:`ProcFS` resolves template directories on lookup; the
model below installs every file of every mount in one dict and answers
every question by scanning it.  Random operation sequences over a tiny
alphabet (so paths overlap constantly) must give identical results and
identical ``ProcfsError`` messages.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dproc import DirTemplate, ProcFS, ProcFile
from repro.errors import ProcfsError

#: Template layouts: relative path -> writable.
LAYOUTS = (
    {"a": False, "b/a": True},
    {"a/b": False, "a/c": True, "c": False},
    {"b": True},
)


def _template_file(rel: str, writable: bool) -> ProcFile:
    def read(log, tag):
        return f"{tag}:{rel}\n"

    def write(log, tag, text):
        log.append((tag, rel, text))
    return ProcFile(read, write if writable else None)


TEMPLATES = tuple(
    DirTemplate({rel: _template_file(rel, writable)
                 for rel, writable in layout.items()})
    for layout in LAYOUTS)


def _plain_file(log, tag: str, writable: bool) -> ProcFile:
    def write(text):
        log.append((tag, "", text))
    return ProcFile(lambda: f"{tag}\n", write if writable else None)


def _key(path: str) -> tuple[str, ...]:
    key = tuple(p for p in path.strip().split("/") if p)
    if not key:
        raise ProcfsError(f"bad path {path!r}")
    return key


class EagerFS:
    """Reference: one dict of full path -> file, scanned per question."""

    def __init__(self) -> None:
        #: Full key -> (file, callback context).
        self.files: dict[tuple, tuple[ProcFile, tuple]] = {}
        #: Mount point -> the full keys it installed.
        self.points: dict[tuple, list[tuple]] = {}

    def mount(self, path, file):
        self._install(path, {(): file}, ())

    def mount_dir(self, path, layout, *context):
        self._install(path, {_key(rel): _template_file(rel, writable)
                             for rel, writable in layout.items()},
                      context)

    def _install(self, path, files, context):
        key = _key(path)
        if key in self.points:
            raise ProcfsError(f"{path!r} already mounted")
        if any(p[:len(key)] == key for p in self.points):
            raise ProcfsError(
                f"{path!r} conflicts with existing mounts below it")
        for i in range(1, len(key)):
            if key[:i] in self.points:
                raise ProcfsError(
                    f"{path!r} conflicts with existing mount "
                    f"{'/' + '/'.join(key[:i])!r}")
        self.points[key] = [key + rel for rel in files]
        for rel, file in files.items():
            self.files[key + rel] = (file, context)

    def unmount(self, path):
        installed = self.points.pop(_key(path), None)
        if installed is None:
            raise ProcfsError(f"{path!r} is not mounted")
        for key in installed:
            del self.files[key]

    def _file(self, path):
        entry = self.files.get(_key(path))
        if entry is None:
            raise ProcfsError(f"no such file {path!r}")
        return entry

    def read(self, path):
        file, context = self._file(path)
        return file.read(*context)

    def write(self, path, text):
        file, context = self._file(path)
        file.write(text, *context)

    def _below(self, key):
        return {f[len(key)] for f in self.files
                if len(f) > len(key) and f[:len(key)] == key}

    def exists(self, path):
        key = _key(path)
        return key in self.files or bool(self._below(key))

    def is_dir(self, path):
        key = _key(path)
        return key not in self.files and bool(self._below(key))

    def listdir(self, path):
        key = _key(path) if path.strip("/") else ()
        if key in self.files:
            raise ProcfsError(f"{path!r} is a file, not a directory")
        names = self._below(key)
        if not names and key:
            raise ProcfsError(f"no such directory {path!r}")
        return sorted(names)


paths = st.one_of(
    st.lists(st.sampled_from("abc"), max_size=4).map(
        lambda parts: "/" + "/".join(parts)),
    st.sampled_from(["", " /a ", "a//b/", "///"]))

operations = st.one_of(
    st.tuples(st.just("mount"), paths, st.booleans()),
    st.tuples(st.just("mount_dir"), paths,
              st.integers(0, len(LAYOUTS) - 1)),
    st.tuples(st.sampled_from(["unmount", "read", "exists", "is_dir",
                               "listdir"]), paths),
    st.tuples(st.just("write"), paths, st.sampled_from(["x", "y\n"])),
)

EVERY_PATH = ["/" + "/".join(parts) for depth in range(5)
              for parts in product("abc", repeat=depth)]


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except ProcfsError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=40))
def test_procfs_matches_eager_model(ops):
    real, model = ProcFS(), EagerFS()
    real_log, model_log = [], []
    for step, (op, path, *rest) in enumerate(ops):
        tag = f"m{step}"
        if op == "mount":
            got = _outcome(real.mount, path,
                           _plain_file(real_log, tag, rest[0]))
            want = _outcome(model.mount, path,
                            _plain_file(model_log, tag, rest[0]))
        elif op == "mount_dir":
            got = _outcome(real.mount_dir, path, TEMPLATES[rest[0]],
                           real_log, tag)
            want = _outcome(model.mount_dir, path, LAYOUTS[rest[0]],
                            model_log, tag)
        else:
            got = _outcome(getattr(real, op), path, *rest)
            want = _outcome(getattr(model, op), path, *rest)
        assert got == want, (step, op, path)
    assert real_log == model_log
    for path in EVERY_PATH:
        for op in ("exists", "is_dir", "listdir", "read"):
            assert (_outcome(getattr(real, op), path)
                    == _outcome(getattr(model, op), path)), (op, path)
