"""INI configuration for the command-line front end.

One section per subcommand, flat key=value pairs. Values read from the
file act as defaults; explicit command-line flags always win.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .errors import SchemaError

if TYPE_CHECKING:
    import configparser

__all__ = ["load_config", "section_defaults"]


def load_config(path: str | Path) -> configparser.ConfigParser:
    import configparser  # here, not at module level: only --config reads a file

    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise SchemaError(f"config file not found or unreadable: {path}")
    return parser


def section_defaults(parser: configparser.ConfigParser, command: str) -> dict[str, str]:
    if not parser.has_section(command):
        return {}
    return dict(parser.items(command))
