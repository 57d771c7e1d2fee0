package gateway

import (
	"encoding/json"
	"fmt"
	"os"
)

// Shard backend names accepted by ShardSpec.Backend.
const (
	// BackendSim runs the shard's groups in-process on the gateway's
	// shared simulated network (the default).
	BackendSim = "sim"
	// BackendTCP runs the shard's groups on remote node processes
	// (cmd/lds-node) over tcpnet, provisioned via the registration
	// handshake.
	BackendTCP = "tcp"
)

// NodeSpec names one node-host process of the cluster: a topology-wide
// unique id (the index of the process's control endpoint, ctl/ID, and the
// value of its -node flag) and its listen address.
type NodeSpec struct {
	ID   int32  `json:"id"`
	Addr string `json:"addr"`
}

// ShardSpec configures one shard's backend. A "sim" shard (the zero
// value) needs nothing else; a "tcp" shard lists the node processes that
// together host its groups. Server placement within the group is
// deterministic (L1/i and L2/i on Nodes[i mod len(Nodes)]), so the list
// order is significant and must be identical everywhere the topology is
// used. One node may back any number of shards: groups are namespaced, so
// shard traffic never mixes.
type ShardSpec struct {
	Backend string     `json:"backend,omitempty"`
	Nodes   []NodeSpec `json:"nodes,omitempty"`
}

// Topology is the cluster layout of a gateway: one spec per shard, plus
// the gateway-side transport endpoints. It is the JSON document
// cmd/lds-gateway's -topology flag loads.
//
//	{
//	  "listen": "0.0.0.0:9000",
//	  "advertise": "10.0.0.5:9000",
//	  "shards": [
//	    {"backend": "sim"},
//	    {"backend": "tcp", "nodes": [
//	      {"id": 1, "addr": "10.0.0.11:7101"},
//	      {"id": 2, "addr": "10.0.0.12:7101"},
//	      {"id": 3, "addr": "10.0.0.13:7101"}
//	    ]}
//	  ]
//	}
type Topology struct {
	// Listen is the gateway-side tcpnet listener address hosting the
	// remote shards' client endpoints; empty selects "127.0.0.1:0"
	// (loopback, ephemeral port — single-machine clusters).
	Listen string `json:"listen,omitempty"`
	// Advertise is the address node processes dial the gateway back on;
	// empty selects the bound Listen address (wrong when the gateway
	// listens on a wildcard address — advertise a routable one).
	Advertise string `json:"advertise,omitempty"`
	// Shards configures each shard, in shard-index order.
	Shards []ShardSpec `json:"shards"`
}

// LoadTopology reads and validates a topology JSON file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: topology: %w", err)
	}
	return ParseTopology(data)
}

// ParseTopology parses and validates topology JSON.
func ParseTopology(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("gateway: topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks structural invariants: at least one shard, known
// backend names, every TCP shard non-empty, and node ids that are
// non-negative and bound to exactly one address across the whole
// topology.
func (t *Topology) Validate() error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("gateway: topology has no shards")
	}
	addrs := make(map[int32]string)
	for i, s := range t.Shards {
		switch s.Backend {
		case "", BackendSim:
			if len(s.Nodes) != 0 {
				return fmt.Errorf("gateway: topology shard %d: sim backend takes no nodes", i)
			}
		case BackendTCP:
			if len(s.Nodes) == 0 {
				return fmt.Errorf("gateway: topology shard %d: tcp backend needs at least one node", i)
			}
			for _, n := range s.Nodes {
				if n.ID < 0 {
					return fmt.Errorf("gateway: topology shard %d: node id %d, want >= 0", i, n.ID)
				}
				if n.Addr == "" {
					return fmt.Errorf("gateway: topology shard %d: node %d has no address", i, n.ID)
				}
				if prev, ok := addrs[n.ID]; ok && prev != n.Addr {
					return fmt.Errorf("gateway: topology: node %d listed at both %s and %s", n.ID, prev, n.Addr)
				}
				addrs[n.ID] = n.Addr
			}
		default:
			return fmt.Errorf("gateway: topology shard %d: unknown backend %q", i, s.Backend)
		}
	}
	return nil
}

// HasRemote reports whether any shard uses the TCP backend.
func (t *Topology) HasRemote() bool {
	for _, s := range t.Shards {
		if s.Backend == BackendTCP {
			return true
		}
	}
	return false
}

// nodeTable flattens the topology into the id -> address map the
// gateway-side resolver and prober use.
func (t *Topology) nodeTable() map[int32]string {
	table := make(map[int32]string)
	for _, s := range t.Shards {
		for _, n := range s.Nodes {
			table[n.ID] = n.Addr
		}
	}
	return table
}

// nodeIDs lists a shard's node ids in assignment order.
func nodeIDs(specs []NodeSpec) []int32 {
	out := make([]int32, len(specs))
	for i, s := range specs {
		out[i] = s.ID
	}
	return out
}
