"""Documents and schemas.

ESDB stores transaction logs as JSON-like documents with a mostly-fixed core
(transaction id, tenant id, created time, status, ...) plus a free-form
"attributes" column concatenating ~1500 customized sub-attributes. The schema
object declares field types so the engine knows which index structure to
build per field; unknown fields are allowed (flexible schema) and default to
keyword treatment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError, InvalidDocumentError


class FieldType(enum.Enum):
    """How a field should be indexed and stored."""

    KEYWORD = "keyword"  # exact-match terms (tenant_id, status, group)
    NUMERIC = "numeric"  # range-searchable numbers / timestamps
    TEXT = "text"  # analyzed full text (auction_title, nicknames)
    ATTRIBUTES = "attributes"  # the concatenated sub-attribute column


# Member access through the enum class costs a metaclass lookup each time;
# the per-write validator and a segment's field plan read these once per
# field.
_KEYWORD = FieldType.KEYWORD
_NUMERIC = FieldType.NUMERIC
_TEXT = FieldType.TEXT
_ATTRIBUTES = FieldType.ATTRIBUTES


@dataclass(frozen=True)
class Schema:
    """Field-type declarations for a collection.

    Attributes:
        fields: mapping field name → :class:`FieldType`.
        id_field: document identity (routing key ``k2``); must be declared.
        tenant_field: partition key ``k1``; must be declared.
        time_field: record creation time ``t_c``; must be NUMERIC.
    """

    fields: Mapping[str, FieldType]
    id_field: str = "transaction_id"
    tenant_field: str = "tenant_id"
    time_field: str = "created_time"

    def __post_init__(self) -> None:
        for required in (self.id_field, self.tenant_field, self.time_field):
            if required not in self.fields:
                raise ConfigurationError(f"schema must declare field {required!r}")
        if self.fields[self.time_field] is not FieldType.NUMERIC:
            raise ConfigurationError("time_field must be NUMERIC")

    def type_of(self, name: str) -> FieldType:
        """Return the declared type of *name* (KEYWORD for unknown fields —
        flexible schema)."""
        return self.fields.get(name, FieldType.KEYWORD)

    def validate(self, source: Mapping[str, Any]) -> None:
        """Reject *source* unless every field it sets can be indexed: a
        NUMERIC one holds a number, a KEYWORD one (any undeclared field
        included) a hashable term. The one validation a write passes, ahead
        of the translog, so a rejected document is never logged,
        half-indexed or replayed."""
        fields = self.fields
        for name, value in source.items():
            ftype = fields.get(name, _KEYWORD)
            try:
                if ftype is _KEYWORD:
                    hash(value)
                elif ftype is _NUMERIC and value is not None:
                    float(value)
            except (TypeError, ValueError):
                expected = "numeric" if ftype is _NUMERIC else "a hashable term"
                raise InvalidDocumentError(
                    f"field {name!r} must be {expected}, got {value!r}"
                ) from None

    def unroutable(self, source: Any) -> InvalidDocumentError | None:
        """The rejection, naming the field, of a document whose tenant, id
        or creation time routing could not read or hash — or None when
        *source* is well-formed and routing failed for another reason."""
        if not isinstance(source, Mapping):
            return InvalidDocumentError(f"a document must be a mapping, got {source!r}")
        for name in (self.tenant_field, self.id_field, self.time_field):
            if name not in source:
                return InvalidDocumentError(f"document missing field {name!r}")
        if source[self.time_field] is None:
            return InvalidDocumentError(f"field {self.time_field!r} must be numeric, got None")
        try:
            self.validate(source)
        except InvalidDocumentError as invalid:
            return invalid
        return None

    @staticmethod
    def transaction_logs() -> "Schema":
        """The transaction-log schema used throughout the paper's evaluation."""
        return Schema(
            fields={
                "transaction_id": FieldType.KEYWORD,
                "tenant_id": FieldType.KEYWORD,
                "created_time": FieldType.NUMERIC,
                "status": FieldType.KEYWORD,
                "group": FieldType.KEYWORD,
                "buyer_id": FieldType.KEYWORD,
                "amount": FieldType.NUMERIC,
                "quantity": FieldType.NUMERIC,
                "auction_title": FieldType.TEXT,
                "buyer_nickname": FieldType.TEXT,
                "seller_nickname": FieldType.TEXT,
                "attributes": FieldType.ATTRIBUTES,
            }
        )


@dataclass(frozen=True)
class Document:
    """One transaction-log document.

    Attributes:
        doc_id: the unique record id (``k2``), typically the transaction id.
        source: the raw field mapping.
    """

    doc_id: object
    source: Mapping[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.source.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.source[name]

    def __contains__(self, name: str) -> bool:
        return name in self.source

    @staticmethod
    def from_source(source: Mapping[str, Any], schema: Schema) -> "Document":
        """Build a validated document taking its id from the schema's id
        field."""
        if schema.id_field not in source:
            raise InvalidDocumentError(f"document missing id field {schema.id_field!r}")
        schema.validate(source)
        return Document(doc_id=source[schema.id_field], source=dict(source))


def parse_attributes(raw: str) -> dict[str, str]:
    """Parse the concatenated "attributes" column into sub-attributes.

    The production column concatenates ``key:value`` pairs with ``;`` — this
    reproduction uses the same convention. Malformed fragments (no colon) are
    kept under their own name with an empty value, matching the engine's
    tolerance for non-standard strings.
    """
    out: dict[str, str] = {}
    for fragment in raw.split(";"):
        fragment = fragment.strip()
        if not fragment:
            continue
        key, sep, value = fragment.partition(":")
        out[key.strip()] = value.strip() if sep else ""
    return out


def subattribute_term(name: object, value: object) -> str | None:
    """The one index term of sub-attribute *name* holding *value*:
    ``"name:value"``. :func:`parse_attributes` splits a fragment at its
    first colon, so no parsed name holds one and no two parsed pairs share
    a term. A pair no parse yields — a name that is not a colon-free string,
    a value that is not a string — has no term: None, which no index holds."""
    if type(name) is not str or type(value) is not str or ":" in name:
        return None
    return f"{name}:{value}"


def subattribute_terms(subattrs: Mapping[str, str], allowed: frozenset | None) -> list[str]:
    """The :func:`subattribute_term` of each parsed sub-attribute in
    *subattrs* whose name *allowed* holds (every one when None)."""
    return [
        f"{name}:{value}" for name, value in subattrs.items()
        if allowed is None or name in allowed
    ]


def render_attributes(subattrs: Mapping[str, str]) -> str:
    """Inverse of :func:`parse_attributes`."""
    return ";".join(f"{k}:{v}" for k, v in subattrs.items())
