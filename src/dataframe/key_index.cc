#include "dataframe/key_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/logging.h"

namespace lafp::df {

namespace {

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output
/// bit, so dense int keys and double bit patterns spread over the table.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Bits of a double key: -0.0 folds onto 0.0 and every NaN onto one NaN.
uint64_t CanonicalBits(double v) {
  if (v == 0.0) return 0;
  if (std::isnan(v)) return 0x7ff8000000000000ULL;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t IntBits(int64_t v) { return static_cast<uint64_t>(v); }

/// Open-addressing map from a 64-bit key to an id: linear probing, load
/// factor at most 1/2.
class U64Table {
 public:
  /// Id of `key`, inserting it as `next` when absent.
  uint32_t Insert(uint64_t key, uint32_t next) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (size_t i = Mix64(key) & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kNoGroup) {
        s = {key, next};
        ++size_;
        return next;
      }
      if (s.key == key) return s.id;
    }
  }

  uint32_t Find(uint64_t key) const {
    if (slots_.empty()) return kNoGroup;
    for (size_t i = Mix64(key) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNoGroup || s.key == key) return s.id;
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t id = kNoGroup;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNoGroup) continue;
      size_t i = Mix64(s.key) & mask_;
      while (slots_[i].id != kNoGroup) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Open-addressing map from text to an id: linear probing, load factor
/// at most 1/2. A 16-byte slot points at the text (a column's or a
/// dictionary's string, which outlives the index) and caches 32 bits of
/// its hash, so a probe compares bytes only on a hash match.
class TextTable {
 public:
  uint32_t Insert(const std::string& text, uint32_t next) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const uint32_t h = Hash(text);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kNoGroup) {
        s = {&text, h, next};
        ++size_;
        return next;
      }
      if (s.hash == h && *s.text == text) return s.id;
    }
  }

  uint32_t Find(std::string_view text) const {
    if (slots_.empty()) return kNoGroup;
    const uint32_t h = Hash(text);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNoGroup || (s.hash == h && *s.text == text)) return s.id;
    }
  }

 private:
  struct Slot {
    const std::string* text = nullptr;
    uint32_t hash = 0;
    uint32_t id = kNoGroup;
  };

  static uint32_t Hash(std::string_view text) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(text));
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNoGroup) continue;
      size_t i = s.hash & mask_;
      while (slots_[i].id != kNoGroup) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// The comparison class of a key column (see KeyIndex).
enum class KeyClass : uint8_t { kNull, kBool, kInt, kFloat, kText };

KeyClass KeyClassOf(DataType t) {
  switch (t) {
    case DataType::kBool:
      return KeyClass::kBool;
    case DataType::kInt64:
    case DataType::kTimestamp:
      return KeyClass::kInt;
    case DataType::kDouble:
      return KeyClass::kFloat;
    case DataType::kString:
    case DataType::kCategory:
      return KeyClass::kText;
    case DataType::kNull:
      break;
  }
  return KeyClass::kNull;
}

struct RangeRows {
  size_t begin;
  size_t operator[](size_t i) const { return begin + i; }
};

struct ListRows {
  const int64_t* rows;
  size_t operator[](size_t i) const { return static_cast<size_t>(rows[i]); }
};

/// The class a build/probe column pair compares in; false when the pair
/// can only match null against null.
bool CommonClass(KeyClass build, KeyClass probe, KeyClass* out) {
  *out = build;
  if (build == probe || probe == KeyClass::kNull) return true;
  if (build == KeyClass::kNull) {
    *out = probe;
    return true;
  }
  const bool numeric_pair =
      (build == KeyClass::kInt && probe == KeyClass::kFloat) ||
      (build == KeyClass::kFloat && probe == KeyClass::kInt);
  if (numeric_pair) *out = KeyClass::kFloat;
  return numeric_pair;
}

}  // namespace

/// Dense ids of one key column's values, in first-appearance order.
class KeyIndex::ColumnKeys {
 public:
  ColumnKeys(const Column* col, KeyClass cls, bool comparable)
      : col_(col), cls_(cls), comparable_(comparable) {}

  template <typename Rows>
  void Insert(Rows rows, size_t n, uint32_t* out) {
    const Column& c = *col_;
    switch (c.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        const int64_t* v = c.int_data();
        if (cls_ == KeyClass::kFloat) {
          InsertValues(rows, n, out, [v](size_t r) {
            return CanonicalBits(static_cast<double>(v[r]));
          });
        } else {
          InsertValues(rows, n, out, [v](size_t r) { return IntBits(v[r]); });
        }
        return;
      }
      case DataType::kDouble: {
        const double* v = c.double_data();
        InsertValues(rows, n, out,
                     [v](size_t r) { return CanonicalBits(v[r]); });
        return;
      }
      case DataType::kBool: {
        const uint8_t* v = c.bool_data();
        InsertValues(rows, n, out,
                     [v](size_t r) { return uint64_t{v[r] != 0}; });
        return;
      }
      case DataType::kString: {
        const uint8_t* valid = c.validity_data();
        const std::string* v = c.strings().data();
        for (size_t i = 0; i < n; ++i) {
          const size_t r = rows[i];
          out[i] = valid != nullptr && valid[r] == 0 ? NullId()
                                                     : TextId(v[r]);
        }
        return;
      }
      case DataType::kCategory: {
        const uint8_t* valid = c.validity_data();
        const int32_t* codes = c.code_data();
        const Dictionary& dict = *c.dictionary();
        if (code_ids_.size() != dict.size()) {
          code_ids_.assign(dict.size(), kNoGroup);
        }
        for (size_t i = 0; i < n; ++i) {
          const size_t r = rows[i];
          if (valid != nullptr && valid[r] == 0) {
            out[i] = NullId();
            continue;
          }
          uint32_t& id = code_ids_[codes[r]];
          if (id == kNoGroup) id = TextId(dict[codes[r]]);
          out[i] = id;
        }
        return;
      }
      case DataType::kNull:
        for (size_t i = 0; i < n; ++i) out[i] = NullId();
        return;
    }
  }

  void Find(const Column& probe, size_t begin, size_t end,
            uint32_t* out) const {
    const size_t n = end - begin;
    const uint8_t* valid = probe.validity_data();
    auto each = [&](auto&& id_of) {
      for (size_t i = 0; i < n; ++i) {
        const size_t r = begin + i;
        out[i] = valid != nullptr && valid[r] == 0 ? null_id_ : id_of(r);
      }
    };
    if (probe.type() == DataType::kNull) {
      std::fill(out, out + n, null_id_);
      return;
    }
    if (!comparable_) {
      each([](size_t) { return kNoGroup; });
      return;
    }
    switch (probe.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        const int64_t* v = probe.int_data();
        if (cls_ == KeyClass::kFloat) {
          each([&](size_t r) {
            return values_.Find(CanonicalBits(static_cast<double>(v[r])));
          });
        } else {
          each([&](size_t r) { return values_.Find(IntBits(v[r])); });
        }
        return;
      }
      case DataType::kDouble: {
        const double* v = probe.double_data();
        each([&](size_t r) { return values_.Find(CanonicalBits(v[r])); });
        return;
      }
      case DataType::kBool: {
        const uint8_t* v = probe.bool_data();
        each([&](size_t r) { return values_.Find(uint64_t{v[r] != 0}); });
        return;
      }
      case DataType::kString: {
        const std::string* v = probe.strings().data();
        each([&](size_t r) { return texts_.Find(v[r]); });
        return;
      }
      case DataType::kCategory: {
        // Look each dictionary entry up once, on first use.
        const int32_t* codes = probe.code_data();
        const Dictionary& dict = *probe.dictionary();
        std::vector<int64_t> code_ids(dict.size(), -1);
        each([&](size_t r) {
          int64_t& id = code_ids[codes[r]];
          if (id < 0) id = texts_.Find(dict[codes[r]]);
          return static_cast<uint32_t>(id);
        });
        return;
      }
      case DataType::kNull:
        return;
    }
  }

 private:
  template <typename Rows, typename KeyOf>
  void InsertValues(Rows rows, size_t n, uint32_t* out, KeyOf key_of) {
    const uint8_t* valid = col_->validity_data();
    for (size_t i = 0; i < n; ++i) {
      const size_t r = rows[i];
      if (valid != nullptr && valid[r] == 0) {
        out[i] = NullId();
        continue;
      }
      const uint32_t id = values_.Insert(key_of(r), num_ids_);
      if (id == num_ids_) ++num_ids_;
      out[i] = id;
    }
  }

  uint32_t TextId(const std::string& text) {
    const uint32_t id = texts_.Insert(text, num_ids_);
    if (id == num_ids_) ++num_ids_;
    return id;
  }

  uint32_t NullId() {
    if (null_id_ == kNoGroup) null_id_ = num_ids_++;
    return null_id_;
  }

  const Column* col_;
  KeyClass cls_;
  bool comparable_;
  uint32_t num_ids_ = 0;
  uint32_t null_id_ = kNoGroup;
  U64Table values_;
  TextTable texts_;
  std::vector<uint32_t> code_ids_;  // category code -> id, kNoGroup = unseen
};

/// Dense ids of (id so far, next column's id) pairs: one composite-key
/// fold step.
class KeyIndex::PairTable {
 public:
  void Insert(uint32_t* ids, const uint32_t* next, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = pairs_.Insert(Pack(ids[i], next[i]), num_ids_);
      if (id == num_ids_) ++num_ids_;
      ids[i] = id;
    }
  }

  void Find(uint32_t* ids, const uint32_t* next, size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] == kNoGroup || next[i] == kNoGroup) {
        ids[i] = kNoGroup;
      } else {
        ids[i] = pairs_.Find(Pack(ids[i], next[i]));
      }
    }
  }

 private:
  static uint64_t Pack(uint32_t a, uint32_t b) {
    return (uint64_t{a} << 32) | b;
  }

  U64Table pairs_;
  uint32_t num_ids_ = 0;
};

KeyIndex::KeyIndex(const std::vector<const Column*>& cols)
    : KeyIndex(cols, cols) {}

KeyIndex::KeyIndex(const std::vector<const Column*>& cols,
                   const std::vector<const Column*>& probe) {
  LAFP_CHECK(!cols.empty() && cols.size() == probe.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    KeyClass cls;
    const bool comparable = CommonClass(KeyClassOf(cols[k]->type()),
                                        KeyClassOf(probe[k]->type()), &cls);
    columns_.push_back(std::make_unique<ColumnKeys>(cols[k], cls, comparable));
    if (k > 0) folds_.push_back(std::make_unique<PairTable>());
  }
}

KeyIndex::~KeyIndex() = default;
KeyIndex::KeyIndex(KeyIndex&&) noexcept = default;
KeyIndex& KeyIndex::operator=(KeyIndex&&) noexcept = default;

template <typename Rows>
void KeyIndex::InsertImpl(Rows rows, size_t n, uint32_t* ids) {
  columns_[0]->Insert(rows, n, ids);
  if (columns_.size() > 1) {
    std::vector<uint32_t> next(n);
    for (size_t k = 1; k < columns_.size(); ++k) {
      columns_[k]->Insert(rows, n, next.data());
      folds_[k - 1]->Insert(ids, next.data(), n);
    }
  }
  // Ids are handed out densely in row order, so a row opens a group
  // exactly when its id is the next unused one.
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] == first_rows_.size()) {
      first_rows_.push_back(static_cast<int64_t>(rows[i]));
    }
  }
}

void KeyIndex::Insert(size_t begin, size_t end, uint32_t* ids) {
  InsertImpl(RangeRows{begin}, end - begin, ids);
}

void KeyIndex::InsertRows(const std::vector<int64_t>& rows, uint32_t* ids) {
  InsertImpl(ListRows{rows.data()}, rows.size(), ids);
}

void KeyIndex::Find(const std::vector<const Column*>& probe, size_t begin,
                    size_t end, uint32_t* ids) const {
  LAFP_CHECK(probe.size() == columns_.size());
  const size_t n = end - begin;
  columns_[0]->Find(*probe[0], begin, end, ids);
  if (columns_.size() == 1) return;
  std::vector<uint32_t> next(n);
  for (size_t k = 1; k < columns_.size(); ++k) {
    columns_[k]->Find(*probe[k], begin, end, next.data());
    folds_[k - 1]->Find(ids, next.data(), n);
  }
}

}  // namespace lafp::df
