#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "lina/names/content_name.hpp"
#include "lina/names/name_trie.hpp"
#include "lina/routing/rib.hpp"

namespace lina::routing {

/// A name-based router's forwarding table (Figure 2 right): hierarchical
/// name prefixes mapped to output ports, looked up by longest matching
/// prefix, with the §3.1 displacement rule for renamed content.
///
/// The motivating example: router Q holds [/20thCenturyFox/* -> 5] and
/// [/Disney/* -> 3]. When /20thCenturyFox/StarWarsIV is renamed to
/// /Disney/StarWarsIV because of a distribution-rights transfer — while
/// the bits keep being served from the same place — Q must install the
/// exception [/Disney/StarWarsIV -> 5] iff its LPM ports for the old and
/// new names differ.
class NameFib {
 public:
  NameFib() = default;

  /// Wraps a trie rebuilt elsewhere (the lina::snap loader); its
  /// exception_count() starts at zero.
  explicit NameFib(names::NameTrie<Port> trie) : trie_(std::move(trie)) {}

  /// Announces a name prefix on an output port (overwrites on repeat).
  void announce(const names::ContentName& prefix, Port port);

  /// Longest-matching-prefix port for `name`; nullopt if uncovered.
  [[nodiscard]] std::optional<Port> port_for(
      const names::ContentName& name) const;

  /// Processes a Figure 2(b) rename: the content formerly reachable as
  /// `from` is now requested as `to`, still served from `from`'s location.
  /// If the LPM ports differ (the content is displaced w.r.t. this
  /// router), installs the exception [to -> port_for(from)] and returns
  /// true (update cost 1); otherwise leaves the table unchanged and
  /// returns false. Throws std::invalid_argument if `from` has no route.
  bool process_rename(const names::ContentName& from,
                      const names::ContentName& to);

  /// Stored entries (announcements + rename exceptions).
  [[nodiscard]] std::size_t size() const { return trie_.size(); }

  /// Exception entries installed by renames so far.
  [[nodiscard]] std::size_t exception_count() const { return exceptions_; }

  /// Entries surviving LPM subsumption (§3.3.2 aggregateability basis);
  /// an O(n) recount of the table.
  [[nodiscard]] std::size_t lpm_compressed_size() const {
    return trie_.lpm_compressed_size();
  }

  /// Deterministic live-table bytes — what the table-size benches report.
  [[nodiscard]] std::size_t table_bytes() const { return trie_.table_bytes(); }

  /// The underlying trie — serialization view for lina::snap.
  [[nodiscard]] const names::NameTrie<Port>& trie() const { return trie_; }

  /// Loads the snapshot named `table` from the lina::snap store at `dir`,
  /// falling back to a copy of `live` (and bumping
  /// lina.snap.fallback_rebuilds) if the snapshot is missing, truncated,
  /// corrupt, or from an incompatible format version. Never throws on a
  /// bad snapshot — corruption always degrades to a rebuild. Defined in
  /// lina::snap; link lina::snap to use.
  [[nodiscard]] static NameFib load_or_rebuild(
      const std::filesystem::path& dir, const std::string& table,
      const NameFib& live);

 private:
  names::NameTrie<Port> trie_;
  std::size_t exceptions_ = 0;
};

}  // namespace lina::routing
