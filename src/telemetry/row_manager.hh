/**
 * @file
 * Backwards-compatible alias: the row manager was generalized into
 * telemetry::DomainManager (domain_manager.hh) when the topology
 * grew into the cluster::PowerDomain tree.  A "row manager" is
 * simply the domain manager of a row-level domain; existing call
 * sites keep the RowManager name.
 */

#pragma once

#include "telemetry/domain_manager.hh"

namespace polca::telemetry {

using RowManager = DomainManager;

} // namespace polca::telemetry
