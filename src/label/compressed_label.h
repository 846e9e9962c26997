// Compressed disclosure labels (§6.1).
//
// For a single-atom view V, instead of materializing the GLB label we store
//     ℓ+(V) = { S_i ∈ Fgen : {V} ⪯ {S_i} }
// — the set of security views that determine V's answer — because
//     ℓ(V) ⪯ ℓ(V')   iff   ℓ+(V) ⊇ ℓ+(V').
//
// A PackedAtomLabel packs the base relation id into the low 32 bits of one
// 64-bit word and the ℓ+ membership mask (bit i = the i-th view registered
// for that relation in the ViewCatalog) into the high 32 bits — exactly the
// layout §6.1 describes. A WideAtomLabel carries the same ℓ+ set as an
// array of 64-bit mask words for relations whose view count exceeds the
// packed capacity; the word count is fixed per relation at catalog-compile
// time (CompiledCatalogMatcher::MaskWords).
//
// A DisclosureLabel holds one entry per dissected atom, in whichever
// representation the atom's relation uses: packed atoms for relations with
// at most kPackedViewCapacity views, wide atoms beyond that. Which
// representation a relation gets is a property of the catalog (its view
// count), so any two labels over the same catalog agree representation-wise
// and compare/hash consistently.
//
// An atom whose ℓ+ is empty is not determined by any security view: its
// label is ⊤. Labels record this in a flag; ⊤-labeled queries compare above
// everything and are refused under every partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_utils.h"

namespace fdc::label {

/// Views representable by one packed 32-bit atom mask. Relations with more
/// views than this use WideAtomLabel entries (multi-word masks).
inline constexpr int kPackedViewCapacity = 32;

/// Mask words a relation with `views` security views needs: ceil(views/64),
/// minimum one. The single definition of the word-width rule that keeps
/// labels, compiled matcher nets, policies and the flat PolicyStore
/// layout-compatible.
constexpr int MaskWordsFor(int views) {
  return views > 64 ? (views + 63) / 64 : 1;
}

/// True iff a relation with `views` security views carries its ℓ+ in
/// WideAtomLabel entries rather than packed atoms. The single packed-or-wide
/// rule: the compiled matcher and every per-view labeler emit what it says.
constexpr bool UsesWideAtoms(int views) { return views > kPackedViewCapacity; }

/// One dissected atom's ℓ+ set: relation id (low 32) + view mask (high 32).
class PackedAtomLabel {
 public:
  PackedAtomLabel() : raw_(0) {}
  PackedAtomLabel(uint32_t relation, uint32_t mask)
      : raw_((static_cast<uint64_t>(mask) << 32) | relation) {}

  uint32_t relation() const { return static_cast<uint32_t>(raw_); }
  uint32_t mask() const { return static_cast<uint32_t>(raw_ >> 32); }
  uint64_t raw() const { return raw_; }

  /// ℓ(this) ⪯ ℓ(other): same relation and ℓ+(this) ⊇ ℓ+(other).
  bool LeqAtom(const PackedAtomLabel& other) const {
    return relation() == other.relation() &&
           (other.mask() & ~mask()) == 0;
  }

  bool operator==(const PackedAtomLabel& other) const {
    return raw_ == other.raw_;
  }
  bool operator<(const PackedAtomLabel& other) const {
    return raw_ < other.raw_;
  }

 private:
  uint64_t raw_;
};

/// Atom label for relations with more than kPackedViewCapacity security
/// views: mask words replace the single 32-bit mask (bit b of ℓ+ lives in
/// mask[b / 64] bit b % 64). Canonical form has no trailing zero words
/// (Normalize), so equal ℓ+ sets compare equal regardless of producer.
struct WideAtomLabel {
  int relation = -1;
  std::vector<uint64_t> mask;

  void SetBit(int bit);
  /// True iff view bit `bit` is in ℓ+ (bits past the stored words are 0).
  bool Test(int bit) const {
    const std::size_t word = static_cast<std::size_t>(bit) / 64;
    return word < mask.size() &&
           (mask[word] & (uint64_t{1} << (bit % 64))) != 0;
  }
  bool LeqAtom(const WideAtomLabel& other) const;
  bool MaskEmpty() const;
  /// Drops trailing zero words (the canonical form Add/AddWide store).
  void Normalize();
  bool operator==(const WideAtomLabel& other) const {
    return relation == other.relation && mask == other.mask;
  }
  bool operator<(const WideAtomLabel& other) const {
    if (relation != other.relation) return relation < other.relation;
    return mask < other.mask;
  }
};

/// ℓ+(packed) ⊇ ℓ+(wide) over the same relation (mixed-representation
/// comparison; only reachable when labels from different catalogs meet).
bool PackedCoversWide(const PackedAtomLabel& packed, const WideAtomLabel& wide);
/// ℓ+(wide) ⊇ ℓ+(packed) over the same relation.
bool WideCoversPacked(const WideAtomLabel& wide, const PackedAtomLabel& packed);

/// A query's disclosure label: one entry per dissected atom — packed for
/// narrow relations, wide for relations beyond the packed view capacity.
class DisclosureLabel {
 public:
  /// Adds one atom's ℓ+; an empty mask marks the whole label ⊤.
  void Add(PackedAtomLabel atom);

  /// Adds one wide atom's ℓ+ (normalized in place); empty again marks ⊤.
  void AddWide(WideAtomLabel atom);

  /// Marks the label ⊤ explicitly (atom over a relation with no views).
  void MarkTop() { top_ = true; }

  bool top() const { return top_; }
  const std::vector<PackedAtomLabel>& atoms() const { return atoms_; }
  const std::vector<WideAtomLabel>& wide_atoms() const { return wide_atoms_; }
  /// Packed-atom count (wide atoms are surfaced separately; total entries =
  /// size() + wide_atoms().size()).
  int size() const { return static_cast<int>(atoms_.size()); }
  bool empty() const { return atoms_.empty() && wide_atoms_.empty() && !top_; }

  /// Canonicalizes (sorts, dedupes) — call once after the last Add when the
  /// label will be compared or hashed.
  void Seal();

  /// ℓ(this) ⪯ ℓ(other) in the lattice of disclosure labels. O(r·s) as in
  /// the §6.1 complexity analysis.
  bool Leq(const DisclosureLabel& other) const;

  /// LUB with another label (information combination across queries):
  /// concatenation + dedup, per §4.2's union semantics.
  void UnionWith(const DisclosureLabel& other);

  bool operator==(const DisclosureLabel& other) const {
    return top_ == other.top_ && atoms_ == other.atoms_ &&
           wide_atoms_ == other.wide_atoms_;
  }

 private:
  std::vector<PackedAtomLabel> atoms_;
  std::vector<WideAtomLabel> wide_atoms_;
  bool top_ = false;
};

/// Wide counterpart of DisclosureLabel: every atom in multi-word form with
/// no per-relation view cap. This is the per-view wide oracle's output
/// (LabelingPipeline::LabelWide) and the ablation-A2 representation; the
/// production DisclosureLabel carries wide atoms only where the catalog
/// needs them.
class WideLabel {
 public:
  void Add(WideAtomLabel atom);
  bool top() const { return top_; }
  const std::vector<WideAtomLabel>& atoms() const { return atoms_; }
  bool Leq(const WideLabel& other) const;

 private:
  std::vector<WideAtomLabel> atoms_;
  bool top_ = false;
};

}  // namespace fdc::label
