// Optical-layer model: transceiver technologies and power thresholds.
//
// Every switch-to-switch link in the studied DCNs is optical (Section 4,
// footnote 4). Each direction has a transmitter whose laser emits at
// TxPower dBm and a receiver that sees RxPower = TxPower minus the path
// loss (connectors + fiber). The recommendation engine classifies powers
// as High/Low against per-technology thresholds (PowerThreshTx and
// PowerThreshRx in Algorithm 1).
#pragma once

#include <string>

namespace corropt::telemetry {

struct OpticalTech {
  std::string name = "generic-10G-SR";
  // Healthy laser output power.
  double nominal_tx_dbm = 0.0;
  // TxPower at or below this indicates a decaying transmitter
  // (PowerThreshTx in Algorithm 1).
  double tx_threshold_dbm = -3.0;
  // RxPower below this indicates an optical-path problem
  // (PowerThreshRx in Algorithm 1).
  double rx_threshold_dbm = -10.0;
  // Healthy end-to-end path loss: connectors plus fiber attenuation.
  double nominal_path_loss_db = 4.0;

  // Per-direction receive power given the transmitter's power and any
  // fault-induced extra attenuation on the path.
  [[nodiscard]] double rx_power_dbm(double tx_power_dbm,
                                    double extra_attenuation_db) const {
    return tx_power_dbm - nominal_path_loss_db - extra_attenuation_db;
  }

  [[nodiscard]] bool tx_is_low(double tx_power_dbm) const {
    return tx_power_dbm <= tx_threshold_dbm;
  }
  [[nodiscard]] bool rx_is_low(double rx_power_dbm) const {
    return rx_power_dbm < rx_threshold_dbm;
  }
};

// The common technologies in the studied data centers differ in loss
// budget; the deployed engine used one threshold for all (Section 7.2),
// and so does every experiment here.
[[nodiscard]] OpticalTech default_tech();

}  // namespace corropt::telemetry
