#include "log/event_dictionary.h"

#include "common/check.h"

namespace hematch {

EventId EventDictionary::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

Result<EventId> EventDictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("unknown event name: " + std::string(name));
  }
  return it->second;
}

bool EventDictionary::Contains(std::string_view name) const {
  return ids_.find(name) != ids_.end();
}

const std::string& EventDictionary::Name(EventId id) const {
  HEMATCH_CHECK(id < names_.size(), "event id out of range");
  return names_[id];
}

}  // namespace hematch
