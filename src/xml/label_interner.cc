#include "xml/label_interner.h"

#include "common/logging.h"

namespace axml {

LabelInterner& LabelInterner::Global() {
  // Deliberately leaked (raw new allowed here — see
  // scripts/check_source.py): trees may outlive every static
  // destruction order the linker could pick.
  static LabelInterner* const interner = new LabelInterner();
  return *interner;
}

LabelInterner::LabelInterner() {
  MutexLock lock(mu_);
  SeedWellKnown();
}

void LabelInterner::SeedWellKnown() {
  // Id 0 is the empty label; the dialect labels take 1..5 in this
  // order. WellKnownLabels::Get caches these ids, so ResetForTesting
  // must reproduce the assignment exactly.
  InternLocked("");
  InternLocked("sc");
  InternLocked("peer");
  InternLocked("service");
  InternLocked("param");
  InternLocked("forw");
}

LabelId LabelInterner::InternLocked(std::string_view label) {
  auto it = ids_.find(std::string(label));
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(texts_.size());
  texts_.emplace_back(label);
  ids_.emplace(texts_.back(), id);
  return id;
}

LabelId LabelInterner::Intern(std::string_view label) {
  MutexLock lock(mu_);
  return InternLocked(label);
}

const std::string& LabelInterner::Text(LabelId id) const {
  MutexLock lock(mu_);
  AXML_CHECK_LT(id, texts_.size()) << "unknown LabelId " << id;
  // Safe to return by reference: texts_ is a deque (no relocation on
  // growth) and entries are never erased outside ResetForTesting.
  return texts_[id];
}

LabelId LabelInterner::Lookup(std::string_view label) const {
  MutexLock lock(mu_);
  auto it = ids_.find(std::string(label));
  return it == ids_.end() ? 0 : it->second;
}

size_t LabelInterner::size() const {
  MutexLock lock(mu_);
  return texts_.size();
}

void LabelInterner::ResetForTesting() {
  MutexLock lock(mu_);
  ids_.clear();
  texts_.clear();
  SeedWellKnown();
}

const WellKnownLabels& WellKnownLabels::Get() {
  // Leaked like the interner (allowed raw new, same reason).
  static const WellKnownLabels* const labels = [] {
    auto* l = new WellKnownLabels();
    l->sc = InternLabel("sc");
    l->peer = InternLabel("peer");
    l->service = InternLabel("service");
    l->param = InternLabel("param");
    l->forw = InternLabel("forw");
    return l;
  }();
  return *labels;
}

}  // namespace axml
