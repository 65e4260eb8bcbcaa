"""ProcFS against an eager reference model.

The real :class:`ProcFS` resolves roster directories on lookup; the
model below installs every file of every mount in one dict, again for
every name that joins a mount's roster, and answers every question by
scanning it.  Random operation sequences over a tiny alphabet (so
paths and names overlap constantly) must give identical results and
identical ``ProcfsError`` messages.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dproc import DirTemplate, ProcFS, ProcFile, Roster
from repro.errors import ProcfsError

#: Template layouts: relative path -> writable.
LAYOUTS = (
    {"a": False, "b/a": True},
    {"a/b": False, "a/c": True, "c": False},
    {"b": True},
)


#: How many rosters a sequence's mounts choose from.
ROSTERS = 2


def _template_file(rel: str, writable: bool) -> ProcFile:
    def read(log, tag, name):
        return f"{tag}:{name}:{rel}\n"

    def write(log, tag, name, text):
        log.append((tag, name, rel, text))
    return ProcFile(read, write if writable else None)


TEMPLATES = tuple(
    DirTemplate({rel: _template_file(rel, writable)
                 for rel, writable in layout.items()})
    for layout in LAYOUTS)


def _plain_file(log, tag: str, writable: bool) -> ProcFile:
    def write(text):
        log.append((tag, "", "", text))
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
        #: Every mount point, file or directory.
        self.points: set[tuple] = set()
        #: Directory mount point -> (layout, roster index, context).
        self.dirs: dict[tuple, tuple[dict, int, tuple]] = {}
        self.rosters: list[set[str]] = [set() for _ in range(ROSTERS)]

    def mount(self, path, file):
        self.files[self._claim(path)] = (file, ())

    def mount_dir(self, path, layout, roster, *context):
        key = self._claim(path)
        self.dirs[key] = (layout, roster, context)
        for name in self.rosters[roster]:
            self._install(key, name)

    def join(self, roster, name):
        if not name or "/" in name or name != name.strip():
            raise ProcfsError(f"bad host name {name!r}")
        if name in self.rosters[roster]:
            raise ProcfsError(f"{name!r} already in /proc/cluster")
        self.rosters[roster].add(name)
        for key, (_, shared, _) in self.dirs.items():
            if shared == roster:
                self._install(key, name)

    def _install(self, key, name):
        layout, _, context = self.dirs[key]
        for rel, writable in layout.items():
            self.files[key + (name,) + _key(rel)] = (
                _template_file(rel, writable), (*context, name))

    def _claim(self, path):
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
        self.points.add(key)
        return key

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
        # A directory mount point is a directory even while its
        # roster is empty.
        return {f[len(key)] for f in [*self.files, *self.dirs]
                if len(f) > len(key) and f[:len(key)] == key}

    def _is_dir(self, key):
        return key in self.dirs or bool(self._below(key))

    def exists(self, path):
        key = _key(path)
        return key in self.files or self._is_dir(key)

    def is_dir(self, path):
        key = _key(path)
        return key not in self.files and self._is_dir(key)

    def listdir(self, path):
        key = _key(path) if path.strip("/") else ()
        if key in self.files:
            raise ProcfsError(f"{path!r} is a file, not a directory")
        if key and not self._is_dir(key):
            raise ProcfsError(f"no such directory {path!r}")
        return sorted(self._below(key))


paths = st.one_of(
    st.lists(st.sampled_from("abc"), max_size=4).map(
        lambda parts: "/" + "/".join(parts)),
    st.sampled_from(["", " /a ", "a//b/", "///"]))

rosters = st.integers(0, ROSTERS - 1)

operations = st.one_of(
    st.tuples(st.just("mount"), paths, st.booleans()),
    st.tuples(st.just("mount_dir"), paths,
              st.integers(0, len(LAYOUTS) - 1), rosters),
    st.tuples(st.just("join"), rosters,
              st.sampled_from(["a", "b", "c", "", "a/b", " a"])),
    st.tuples(st.sampled_from(["read", "exists", "is_dir", "listdir"]),
              paths),
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
    real_rosters = [Roster() for _ in range(ROSTERS)]
    real_log, model_log = [], []
    for step, (op, path, *rest) in enumerate(ops):
        tag = f"m{step}"
        if op == "mount":
            got = _outcome(real.mount, path,
                           _plain_file(real_log, tag, rest[0]))
            want = _outcome(model.mount, path,
                            _plain_file(model_log, tag, rest[0]))
        elif op == "mount_dir":
            layout, roster = rest
            got = _outcome(real.mount_dir, path, TEMPLATES[layout],
                           real_rosters[roster], real_log, tag)
            want = _outcome(model.mount_dir, path, LAYOUTS[layout],
                            roster, model_log, tag)
        elif op == "join":
            roster, name = path, rest[0]
            got = _outcome(real_rosters[roster].add, name)
            want = _outcome(model.join, roster, name)
        else:
            got = _outcome(getattr(real, op), path, *rest)
            want = _outcome(getattr(model, op), path, *rest)
        assert got == want, (step, op, path)
    assert real_log == model_log
    for path in EVERY_PATH:
        for op in ("exists", "is_dir", "listdir", "read"):
            assert (_outcome(getattr(real, op), path)
                    == _outcome(getattr(model, op), path)), (op, path)
