"""Atomic file output: write a temporary sibling, then rename it into place."""

import contextlib
import os
import tempfile

# mkstemp creates files 0600; finished outputs get the usual 0666 & ~umask
_UMASK = os.umask(0)
os.umask(_UMASK)


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file object whose contents replace ``path`` on clean exit.

    Each call writes its own uniquely named temporary file in the target
    directory, so concurrent writers of one path never share a temporary
    and the last rename wins with a complete file.  On error the
    temporary is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
