"""Unit tests for the pseudo-filesystem."""

from __future__ import annotations

import pytest

from repro.dproc import DirTemplate, ProcFS, ProcFile, Roster
from repro.errors import ProcfsError


@pytest.fixture
def fs():
    fs = ProcFS()
    fs.mount("/proc/loadavg", ProcFile(lambda: "0.50\n"))
    written = []
    fs.mount("/proc/cluster/maui/control",
             ProcFile(lambda: "log\n", written.append))
    fs.written = written  # type: ignore[attr-defined]
    return fs


class TestMounting:
    def test_read_mounted_file(self, fs):
        assert fs.read("/proc/loadavg") == "0.50\n"

    def test_duplicate_mount_rejected(self, fs):
        with pytest.raises(ProcfsError, match="already"):
            fs.mount("/proc/loadavg", ProcFile(lambda: ""))

    def test_file_cannot_shadow_directory(self, fs):
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/cluster", ProcFile(lambda: ""))

    def test_directory_cannot_shadow_file(self, fs):
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/loadavg/sub", ProcFile(lambda: ""))

    def test_bad_path_rejected(self, fs):
        with pytest.raises(ProcfsError):
            fs.read("")
        with pytest.raises(ProcfsError):
            fs.read("///")


class TestAccess:
    def test_read_missing_raises(self, fs):
        with pytest.raises(ProcfsError, match="no such file"):
            fs.read("/proc/nothing")

    def test_write_to_readonly_raises(self, fs):
        with pytest.raises(ProcfsError, match="read-only"):
            fs.write("/proc/loadavg", "x")

    def test_write_dispatches_to_handler(self, fs):
        fs.write("/proc/cluster/maui/control", "period cpu 2")
        assert fs.written == ["period cpu 2"]

    def test_reads_are_fresh(self):
        fs = ProcFS()
        counter = {"n": 0}

        def read():
            counter["n"] += 1
            return str(counter["n"])

        fs.mount("/proc/dynamic", ProcFile(read))
        assert fs.read("/proc/dynamic") == "1"
        assert fs.read("/proc/dynamic") == "2"

    def test_exists(self, fs):
        assert fs.exists("/proc/loadavg")
        assert fs.exists("/proc/cluster")          # implicit directory
        assert fs.exists("/proc/cluster/maui")
        assert not fs.exists("/proc/cluster/etna")

    def test_is_dir(self, fs):
        assert fs.is_dir("/proc/cluster")
        assert not fs.is_dir("/proc/loadavg")
        assert not fs.is_dir("/does/not/exist")

    def test_listdir(self, fs):
        assert fs.listdir("/proc") == ["cluster", "loadavg"]
        assert fs.listdir("/proc/cluster") == ["maui"]
        assert fs.listdir("/proc/cluster/maui") == ["control"]

    def test_listdir_of_file_raises(self, fs):
        with pytest.raises(ProcfsError, match="is a file"):
            fs.listdir("/proc/loadavg")

    def test_listdir_missing_raises(self, fs):
        with pytest.raises(ProcfsError, match="no such directory"):
            fs.listdir("/proc/ghost")


class TestTemplateDirectories:
    @pytest.fixture
    def template(self):
        return DirTemplate({
            "load": ProcFile(lambda owner, host: f"{owner}:{host}\n"),
            "sub/control": ProcFile(
                lambda owner, host: "",
                lambda owner, host, text: owner.append((host, text))),
        })

    def test_one_template_serves_every_mount(self, template):
        fs, roster = ProcFS(), Roster(["maui"])
        fs.mount_dir("/proc/cluster", template, roster, "a")
        fs.mount_dir("/proc/mirror", template, roster, "b")
        roster.add("etna")
        assert fs.read("/proc/cluster/maui/load") == "a:maui\n"
        assert fs.read("/proc/cluster/etna/load") == "a:etna\n"
        assert fs.read("/proc/mirror/etna/load") == "b:etna\n"
        assert fs.listdir("/proc/cluster") == ["etna", "maui"]
        assert fs.listdir("/proc/mirror") == ["etna", "maui"]
        assert not fs.exists("/proc/cluster/hood")
        assert fs.listdir("/proc/cluster/maui") == ["load", "sub"]
        assert fs.listdir("/proc/cluster/maui/sub") == ["control"]
        assert fs.is_dir("/proc/cluster/maui/sub")
        assert not fs.is_dir("/proc/cluster/maui/load")
        assert not fs.exists("/proc/cluster/maui/ghost")

    def test_writes_carry_the_mount_context(self, template):
        fs, written = ProcFS(), []
        fs.mount_dir("/proc/cluster", template, Roster(["maui"]), written)
        fs.write("/proc/cluster/maui/sub/control", "period cpu 2")
        assert written == [("maui", "period cpu 2")]
        with pytest.raises(ProcfsError, match="read-only"):
            fs.write("/proc/cluster/maui/load", "x")

    def test_directory_owns_its_path(self, fs, template):
        roster = Roster(["etna"])
        fs.mount_dir("/proc/hosts", template, roster, None)
        with pytest.raises(ProcfsError, match="already"):
            fs.mount_dir("/proc/hosts", template, roster, None)
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/hosts/etna/extra", ProcFile(lambda: ""))
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/hosts/maui", ProcFile(lambda: ""))
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount_dir("/proc", template, roster, None)
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount_dir("/proc/loadavg/sub", template, roster, None)

    def test_an_empty_roster_mount_is_a_directory(self, template):
        fs = ProcFS()
        fs.mount_dir("/proc/cluster", template, Roster(), None)
        assert fs.is_dir("/proc/cluster")
        assert fs.listdir("/proc/cluster") == []
        with pytest.raises(ProcfsError, match="no such file"):
            fs.read("/proc/cluster/maui/load")

    def test_bad_layouts_rejected(self):
        with pytest.raises(ProcfsError):
            DirTemplate({})
        with pytest.raises(ProcfsError, match="conflicts"):
            DirTemplate({"a": ProcFile(lambda: ""),
                         "a/b": ProcFile(lambda: "")})
