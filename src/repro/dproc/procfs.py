"""Pseudo-filesystem plumbing for the dproc /proc interface.

A minimal in-memory procfs: directories are implicit, files are
callback-backed (reads compute fresh content; writes invoke a handler).
The dproc toolkit mounts its tree here::

    /proc/loadavg                      (standard Linux entry)
    /proc/cluster/<node>/loadavg       (remote monitoring data)
    /proc/cluster/<node>/freemem
    ...
    /proc/cluster/<node>/control       (parameters + filter deployment)

``/proc/cluster`` is one mount over a :class:`Roster`: the template
under it answers for every listed node.
"""

from __future__ import annotations

from bisect import insort
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ProcfsError

__all__ = ["ProcFS", "ProcFile", "DirTemplate", "Roster"]

ReadFn = Callable[..., str]
WriteFn = Callable[..., None]


class ProcFile:
    """One pseudo-file: read callback plus optional write handler.

    A file of a :class:`DirTemplate` gets its mount's context as
    leading arguments; a file mounted on its own gets none.
    """

    def __init__(self, read_fn: ReadFn,
                 write_fn: Optional[WriteFn] = None) -> None:
        self._read = read_fn
        self._write = write_fn

    def read(self, *context) -> str:
        return self._read(*context)

    def write(self, text: str, *context) -> None:
        if self._write is None:
            raise ProcfsError("file is read-only")
        self._write(*context, text)


def _split(path: str) -> tuple[str, ...]:
    parts = tuple(filter(None, path.strip().split("/")))
    if not parts:
        raise ProcfsError(f"bad path {path!r}")
    return parts


class DirTemplate:
    """A directory layout built once and mounted any number of times.

    ``files`` maps relative paths to files whose callbacks take a
    mount's context (dproc passes ``(dproc, host)``).  Checked like
    any other set of mounts, then frozen, so every mount shares it.
    """

    def __init__(self, files: Mapping[str, ProcFile]) -> None:
        if not files:
            raise ProcfsError("a directory template needs a file")
        layout = ProcFS()
        for path, file in files.items():
            layout.mount(path, file)
        #: Relative key -> file.
        self.files = MappingProxyType(layout._files)
        #: Relative directory key (``()`` is the root) -> child names.
        self.children = MappingProxyType(
            {key: tuple(sorted(names))
             for key, names in layout._children.items()})


class Roster:
    """A grow-only set of names, listed sorted: the members of one
    deployment, which every instance's ``/proc/cluster`` shares.

    A name is one path component: not empty, no ``/``, no leading or
    trailing whitespace.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._members: set[str] = set()
        self._sorted: list[str] = []
        self._names: Optional[tuple[str, ...]] = ()
        for name in names:
            self.add(name)

    def add(self, name: str) -> None:
        if not name or "/" in name or name != name.strip():
            raise ProcfsError(f"bad host name {name!r}")
        if name in self._members:
            raise ProcfsError(f"{name!r} already in /proc/cluster")
        self._members.add(name)
        insort(self._sorted, name)
        self._names = None

    @property
    def names(self) -> tuple[str, ...]:
        """Every member, sorted; one tuple until the next ``add``."""
        if self._names is None:
            self._names = tuple(self._sorted)
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __iter__(self):
        return iter(self.names)


class ProcFS:
    """In-memory pseudo-filesystem with callback-backed files.

    Directory structure is tracked incrementally, so a mount costs
    O(path depth) however many mounts exist.  A template directory
    mounted over a roster is one entry however many names the roster
    lists and however many files the template shows.
    """

    def __init__(self) -> None:
        self._files: dict[tuple[str, ...], ProcFile] = {}
        #: Mount point -> (template, roster, leading callback context).
        self._dirs: dict[tuple[str, ...],
                         tuple[DirTemplate, Roster, tuple]] = {}
        #: Directory key -> child names; a roster mount's is its roster.
        self._children: dict[tuple[str, ...], set[str] | Roster] = {}

    # -- mounting ------------------------------------------------------------

    def mount(self, path: str, file: ProcFile) -> None:
        """Install a file at ``path`` (intermediate dirs are implicit)."""
        self._files[self._claim(path)] = file

    def mount_dir(self, path: str, template: DirTemplate, roster: Roster,
                  *context) -> None:
        """Serve ``path/<name>`` from ``template`` for every name in
        ``roster``, now or added later; the files' callbacks get
        ``(*context, name)``.  The directory owns ``path`` like a file
        does: nothing else mounts at or below it."""
        key = self._claim(path)
        self._dirs[key] = (template, roster, context)
        self._children[key] = roster

    def _claim(self, path: str) -> tuple[str, ...]:
        key = _split(path)
        if key in self._files or key in self._dirs:
            raise ProcfsError(f"{path!r} already mounted")
        # A mount cannot also be a directory prefix of another mount.
        if key in self._children:
            raise ProcfsError(
                f"{path!r} conflicts with existing mounts below it")
        for i in range(1, len(key)):
            if key[:i] in self._files or key[:i] in self._dirs:
                raise ProcfsError(
                    f"{path!r} conflicts with existing mount "
                    f"{'/' + '/'.join(key[:i])!r}")
        for i in range(len(key)):
            self._children.setdefault(key[:i], set()).add(key[i])
        return key

    # -- access ---------------------------------------------------------------

    def read(self, path: str) -> str:
        """Read a file's current content."""
        file, context = self._lookup(path)
        return file.read(*context)

    def write(self, path: str, text: str) -> None:
        """Write ``text`` to a file (its handler interprets it)."""
        file, context = self._lookup(path)
        file.write(text, *context)

    def exists(self, path: str) -> bool:
        """True for both files and (implicit) directories."""
        files, children, key, _ = self._resolve(_split(path))
        return key in files or key in children

    def is_dir(self, path: str) -> bool:
        files, children, key, _ = self._resolve(_split(path))
        return key not in files and key in children

    def listdir(self, path: str) -> list[str]:
        """Names directly under a directory."""
        root = not path.strip("/")
        files, children, key, _ = self._resolve(
            () if root else _split(path))
        if key in files:
            raise ProcfsError(f"{path!r} is a file, not a directory")
        names = children.get(key)
        if names is None:
            if not root:
                raise ProcfsError(f"no such directory {path!r}")
            return []
        return sorted(names)

    def _resolve(self, key: tuple[str, ...]):
        """The tables that answer for ``key``: ``(files, children,
        key within them, callback context)`` — those of the template
        serving a listed name below a roster mount, else this
        filesystem's own (where nothing lies below a roster mount)."""
        # Mounts own their paths, so at most one is a prefix of key.
        for i in range(1, len(key)):
            entry = self._dirs.get(key[:i])
            if entry is not None and key[i] in entry[1]:
                template, _, context = entry
                return (template.files, template.children, key[i + 1:],
                        (*context, key[i]))
        return self._files, self._children, key, ()

    def _lookup(self, path: str) -> tuple[ProcFile, tuple]:
        files, _, key, context = self._resolve(_split(path))
        file = files.get(key)
        if file is None:
            raise ProcfsError(f"no such file {path!r}")
        return file, context
