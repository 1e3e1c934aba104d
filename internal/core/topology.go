package core

import (
	"fmt"
	"strings"
)

// DescribeTopology renders the wired testbed — the textual form of the
// paper's Fig. 2: per-node switches with their port assignments, the
// switch mesh, the per-domain static spanning trees (external port
// configuration), and the measurement VLAN. Multi-site fabrics render each
// site as a cluster, followed by the WAN gateway chain with each chain
// link's current extra-delay/asymmetry setting and the site-level FTA
// parameters.
func (s *System) DescribeTopology() string {
	var b strings.Builder
	nSites := s.cfg.NumSites()
	if nSites > 1 {
		fmt.Fprintf(&b, "wide-area fabric: %d sites × (%d nodes, %d gPTP domains, %d clock-sync VMs per node, f = %d) — %d switches\n",
			nSites, s.cfg.Nodes, s.cfg.NumDomains(), s.cfg.VMsPerNode, s.cfg.F, s.cfg.TotalNodes())
	} else {
		fmt.Fprintf(&b, "testbed: %d nodes, %d gPTP domains, %d clock-sync VMs per node (f = %d)\n",
			s.cfg.Nodes, s.cfg.NumDomains(), s.cfg.VMsPerNode, s.cfg.F)
	}
	fmt.Fprintf(&b, "sync interval S = %v, drift bound r_max = %.0f ppb, Gamma = %v\n\n",
		s.cfg.SyncInterval, s.cfg.MaxStaticPPB, s.DriftOffset())

	indent := ""
	if nSites > 1 {
		indent = "  "
	}
	for site := 0; site < nSites; site++ {
		base := site * s.cfg.Nodes
		if nSites > 1 {
			fmt.Fprintf(&b, "site %d (gateway sw%d):\n", site, base+1)
		}
		for i := 0; i < s.cfg.Nodes; i++ {
			g := base + i
			fmt.Fprintf(&b, "%s%s (switch sw%d):\n", indent, NodeName(g), g+1)
			for j := 0; j < s.cfg.Nodes; j++ {
				if j == i {
					continue
				}
				fmt.Fprintf(&b, "%s  port %d -> sw%d (mesh)\n", indent, s.meshPort(i, j), base+j+1)
			}
			for v := 0; v < s.cfg.VMsPerNode; v++ {
				role := "redundant clock-sync VM"
				if v == 0 && i < s.cfg.NumDomains() {
					role = fmt.Sprintf("grandmaster of dom%d", i+1)
				}
				vmName := VMName(g, v)
				fmt.Fprintf(&b, "%s  port %d -> %s (%s, kernel %s)\n",
					indent, s.vmPort(v), vmName, role, s.cfg.KernelFor(vmName))
			}
			if nSites > 1 && i == 0 {
				if site > 0 {
					fmt.Fprintf(&b, "%s  port %d -> sw%d (WAN uplink to site %d)\n",
						indent, s.uplinkToPrev(site), (site-1)*s.cfg.Nodes+1, site-1)
				}
				if site < nSites-1 {
					fmt.Fprintf(&b, "%s  port %d -> sw%d (WAN uplink to site %d)\n",
						indent, s.uplinkToNext(site), (site+1)*s.cfg.Nodes+1, site+1)
				}
			}
		}
	}

	if nSites > 1 {
		fmt.Fprintf(&b, "\nWAN gateway chain (propagation %v per span):\n", s.cfg.InterSitePropagation)
		for i, l := range s.wanChain {
			extra, asym := l.WanDelay()
			fmt.Fprintf(&b, "  %s (site %d <-> site %d): extra delay %v, asymmetry %v\n",
				s.WanLinkName(i), i, i+1, extra, asym)
		}
		w := s.cfg.WanSync
		if w.Enabled {
			ww := w.WithDefaults()
			drift := "off"
			if ww.Drift.Enabled {
				dd := ww.Drift
				drift = fmt.Sprintf("on (step %v/%.0fns, asym bound ±%.0fns)",
					dd.Interval, dd.StepNS, dd.MaxAsymNS)
			}
			tol := s.wanCoord.Tolerable()
			fmt.Fprintf(&b, "site-level FTA: enabled, f = %d, tolerable site failures min(f, ⌊(N−1)/2⌋) = %d, interval %v, holdover after %v, delay drift %s\n",
				ww.F, tol, ww.Interval, ww.HoldoverWindow, drift)
		} else {
			fmt.Fprintf(&b, "site-level FTA: disabled (sites free-run against each other)\n")
		}
	}

	fmt.Fprintf(&b, "\nper-domain spanning trees (IEEE 802.1AS external port configuration):\n")
	for site := 0; site < nSites; site++ {
		base := site * s.cfg.Nodes
		for d := 0; d < s.cfg.NumDomains(); d++ {
			if nSites > 1 {
				fmt.Fprintf(&b, "  site %d dom%d (GM %s):\n", site, d+1, VMName(base+d, 0))
			} else {
				fmt.Fprintf(&b, "  dom%d (GM %s):\n", d+1, VMName(d, 0))
			}
			for local := 0; local < s.cfg.Nodes; local++ {
				brIdx := base + local
				ports, ok := s.relays[brIdx].DomainPortsFor(d)
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "    sw%d: slave port %d, master ports %v\n",
					brIdx+1, ports.SlavePort, ports.MasterPorts)
			}
		}
	}

	fmt.Fprintf(&b, "\nmeasurement VLAN: rooted at sw%d; measurement VM %s (excluded from Pi*: %s)\n",
		s.cfg.MeasurementNode+1,
		VMName(s.cfg.MeasurementNode, s.cfg.MeasurementVM),
		VMName(s.cfg.MeasurementNode, 0))
	return b.String()
}
