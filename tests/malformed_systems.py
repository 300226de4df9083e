"""Malformed system inputs shared by the front-door tests.

Each entry is ``(system, text)``: a value that is not a valid system and
a piece of the error message naming what is wrong with it.
"""

MALFORMED_SYSTEMS = [
    ([1, 2], "got list"),
    ({"applications": {"graphs": []}}, "'architecture'"),
    ({"applications": [], "architecture": {}}, "'applications'"),
    (
        {"applications": {"graphs": [{"name": "a"}]}, "architecture": {}},
        "'tasks'",
    ),
    (
        {"format_version": 99, "applications": {}, "architecture": {}},
        "format version 99",
    ),
]
