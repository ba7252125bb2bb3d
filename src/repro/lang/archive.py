"""Configuration archives.

"Optimizers inspired the archive feature, where a configuration may
consist of multiple files bundled into a single archive.  Several tools
use this feature to attach source and/or object code specialized for a
single configuration." (§5.2)

Click uses the ``ar`` format; we use a simple line-oriented textual
format that survives standard-input/standard-output plumbing:

    !<archive>
    !<member name=config length=123>
    ...123 bytes...
    !<member name=fastclassifier.py length=456>
    ...456 bytes...

A configuration that does not start with ``!<archive>`` is a plain
single-file configuration whose sole member is named ``config``.
"""

from __future__ import annotations

from collections import OrderedDict

ARCHIVE_MAGIC = "!<archive>"
_MEMBER_PREFIX = "!<member "

CONFIG_MEMBER = "config"


class ArchiveError(ValueError):
    """Raised for malformed archive text."""


def is_archive(text):
    """True if ``text`` is in the multi-file archive format."""
    return text.lstrip().startswith(ARCHIVE_MAGIC)


def write_archive(members):
    """Serialize an ordered ``{name: content}`` mapping."""
    parts = [ARCHIVE_MAGIC + "\n"]
    for name, content in members.items():
        if "\n" in name or ">" in name or "=" in name:
            raise ArchiveError("bad archive member name %r" % name)
        data = content if isinstance(content, str) else content.decode("utf-8")
        parts.append("!<member name=%s length=%d>\n" % (name, len(data.encode("utf-8"))))
        parts.append(data)
        if not data.endswith("\n"):
            parts.append("\n")
    return "".join(parts)


def read_archive(text):
    """Parse archive text into an ordered ``{name: content}`` mapping.
    Plain (non-archive) text yields ``{"config": text}``."""
    if not is_archive(text):
        return OrderedDict([(CONFIG_MEMBER, text)])
    body = text.lstrip()
    if not body.startswith(ARCHIVE_MAGIC):
        raise ArchiveError("missing archive magic")
    cursor = body.index(ARCHIVE_MAGIC) + len(ARCHIVE_MAGIC)
    # Skip the newline after the magic.
    if cursor < len(body) and body[cursor] == "\n":
        cursor += 1
    members = OrderedDict()
    data = body.encode("utf-8")
    byte_cursor = len(body[:cursor].encode("utf-8"))
    while byte_cursor < len(data):
        line_end = data.index(b"\n", byte_cursor)
        header = data[byte_cursor:line_end].decode("utf-8")
        if not header.startswith(_MEMBER_PREFIX) or not header.endswith(">"):
            raise ArchiveError("bad member header %r" % header)
        fields = {}
        for item in header[len(_MEMBER_PREFIX):-1].split():
            if "=" not in item:
                raise ArchiveError("bad member header field %r" % item)
            key, value = item.split("=", 1)
            fields[key] = value
        if "name" not in fields or "length" not in fields:
            raise ArchiveError("member header missing name/length: %r" % header)
        length = int(fields["length"])
        content_start = line_end + 1
        content = data[content_start:content_start + length].decode("utf-8")
        if len(content.encode("utf-8")) != length:
            raise ArchiveError("truncated member %r" % fields["name"])
        members[fields["name"]] = content
        byte_cursor = content_start + length
        # Skip the padding newline we add for members not ending in one.
        if byte_cursor < len(data) and data[byte_cursor:byte_cursor + 1] == b"\n" and not content.endswith("\n"):
            byte_cursor += 1
    return members
