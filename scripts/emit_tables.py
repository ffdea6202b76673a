#!/usr/bin/env python3
"""Write all structure tables and the dimension list to an output directory.

Usage: python scripts/emit_tables.py [outdir]   (default: build/tables)
"""
import pathlib
import sys

from q8bv import cli


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "build/tables")
    outdir.mkdir(parents=True, exist_ok=True)
    for kind in cli.TABLE_KINDS:
        entries = cli.table_entries(kind)
        (outdir / f"{kind}.md").write_text(cli.render_table_markdown(kind, entries))
        (outdir / f"{kind}.json").write_text(cli.render_table_json(kind, entries))
    (outdir / "dims.txt").write_text(cli.render_dims(cli.DIMS_DEFAULT))
    print(f"wrote {3 * 2 + 1} files to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
