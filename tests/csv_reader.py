"""The CSV reader the tests use to read back what `umbralqm` writes, and a writer to a stream.

Each cell parses to the value format_cell spelled: "" to None, true/false,
an int, "-0" to -0.0, a float (inf and nan included), else the string.
"""

from umbralqm.cli import Table, _pieces, list_table


def parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "-0":
        return -0.0  # str() never writes an int as "-0"; format_cell does for -0.0
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(stream) -> Table:
    lines = [line.rstrip("\n") for line in stream if line.strip() != ""]
    if not lines:
        raise ValueError("empty csv input")
    names = lines[0].split(",")
    columns = [(name, []) for name in names]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError("ragged csv row")
        for (_, vals), cell in zip(columns, cells):
            vals.append(parse_cell(cell))
    return list_table("", columns)


def write_csv(table: Table, stream) -> None:
    """The table as CSV on stream: the text of each of the CLI's pieces of it, in order."""
    for build in _pieces(table):
        stream.write(build())
