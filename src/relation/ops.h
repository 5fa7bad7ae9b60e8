// Relational-algebra operators over Relation: projection, selection,
// natural join, semijoin, and difference. These are exactly the operators
// the paper's loss definition (Eq. 1) is built from.
#ifndef AJD_RELATION_OPS_H_
#define AJD_RELATION_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "relation/attr_set.h"
#include "relation/relation.h"
#include "util/status.h"

namespace ajd {

/// Projection with set semantics: Pi_attrs(r) = distinct rows of r restricted
/// to `attrs` (ascending position order). `attrs` must be a non-empty subset
/// of r's attributes.
Relation Project(const Relation& r, AttrSet attrs);

/// Number of distinct tuples in Pi_attrs(r) without materializing, by
/// hashing every row. Reference oracle for the session form in
/// engine/groupings.h, which reads the count off a stripped partition.
uint64_t CountDistinct(const Relation& r, AttrSet attrs);

/// Selection: rows where attribute `pos` equals `value`.
Relation Select(const Relation& r, uint32_t pos, uint32_t value);

/// Selection by arbitrary predicate over the raw row.
Relation SelectWhere(const Relation& r,
                     const std::function<bool(const uint32_t*)>& pred);

/// Natural join: matches attributes *by name* across the two schemas. The
/// output schema is left's attributes followed by right's non-shared
/// attributes; domain sizes are merged. Dictionary-encoded inputs must use
/// consistent dictionaries (joins in this library are over projections of a
/// single universal relation, so this holds by construction); a shared
/// attribute with mismatched dictionaries yields InvalidArgument.
Result<Relation> NaturalJoin(const Relation& left, const Relation& right);

/// Size of NaturalJoin(left, right) without materializing the output.
Result<uint64_t> NaturalJoinSize(const Relation& left, const Relation& right);

/// Semijoin: rows of `left` that have a matching row in `right` on the
/// shared (by-name) attributes.
Result<Relation> SemiJoin(const Relation& left, const Relation& right);

/// Set difference left \ right; schemas must be identical.
Result<Relation> Difference(const Relation& left, const Relation& right);

/// True iff the two relations are equal as sets of tuples (schemas must
/// match attribute-for-attribute).
bool SetEquals(const Relation& a, const Relation& b);

}  // namespace ajd

#endif  // AJD_RELATION_OPS_H_
