"""The matrix-file text that lorentz.parse_isometry reads, written from an
Isometry: the form header, then one "row: ..." line per row."""


def serialize_isometry(iso) -> str:
    lines = [iso.form.header()]
    for row in iso.entries:
        lines.append("row: " + ", ".join(
            e.to_text() if hasattr(e, "to_text") else str(e) for e in row))
    return "\n".join(lines) + "\n"
