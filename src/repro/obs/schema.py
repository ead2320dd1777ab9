"""The JSON schemas of the CLI outputs, and their validator.

The schemas ship inside the package (``repro/obs/schemas/``) so an
installed copy validates its own output anywhere:

- ``explain`` — ``python -m repro explain --json`` and serve's
  ``POST /v1/explain``;
- ``profile`` — ``python -m repro profile --json``;
- ``simulate`` — serve's ``POST /v1/simulate``;
- ``trace`` — ``python -m repro trace show --json``.

:func:`validate` checks a small JSON-schema subset, so no jsonschema
dependency is needed.
"""

import json
from importlib import resources

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def load_schema(name):
    """The parsed ``<name>.schema.json`` shipped with the package."""
    text = (
        resources.files("repro.obs") / "schemas" / f"{name}.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def _is_type(value, name):
    if isinstance(value, bool) and name != "boolean":
        return False
    return isinstance(value, _TYPES[name])


def validate(data, schema, path="$"):
    """Validate ``data`` against a small JSON-schema subset.

    Supports ``type`` (string or list), ``properties``, ``required``,
    ``items``, ``enum``, and ``additionalProperties: false``.  Returns
    a list of ``"path: message"`` strings (empty = valid).
    """
    errors = []
    expected = schema.get("type")
    if expected is not None:
        types = [expected] if isinstance(expected, str) else expected
        if not any(_is_type(data, t) for t in types):
            errors.append(
                f"{path}: expected {'|'.join(types)}, "
                f"got {type(data).__name__}"
            )
            return errors
    if "enum" in schema and data not in schema["enum"]:
        errors.append(f"{path}: {data!r} not in enum {schema['enum']}")
    if isinstance(data, dict):
        for name in schema.get("required", ()):
            if name not in data:
                errors.append(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        for name, subschema in properties.items():
            if name in data:
                errors.extend(validate(
                    data[name], subschema, f"{path}.{name}"
                ))
        if schema.get("additionalProperties") is False:
            for name in data:
                if name not in properties:
                    errors.append(f"{path}: unexpected key {name!r}")
    if isinstance(data, list) and "items" in schema:
        for index, item in enumerate(data):
            errors.extend(validate(
                item, schema["items"], f"{path}[{index}]"
            ))
    return errors
