package main

import (
	"fmt"
	"net/url"

	"pushadminer/internal/core"
	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// mined is what a run's outputs are checked and compared by: digests of
// the records, the cluster labels, the malicious labels and the report
// counts, plus the quality numbers.
type mined struct {
	parts    map[string]string
	wpns     int
	ari, nmi float64
	// precision and recall of the malicious labels against the
	// ecosystem's ground truth (studies only).
	precision, recall float64
}

// equal reports whether two runs produced the same outputs, and names
// the first part that differs.
func (m *mined) equal(o *mined) (bool, string) {
	for k, v := range m.parts {
		if o.parts[k] != v {
			return false, k
		}
	}
	if len(m.parts) != len(o.parts) {
		return false, "part set"
	}
	return true, ""
}

// digestAll folds the parts into one digest.
func (m *mined) digestAll() string { return digest(m.parts) }

// counts are the report counters, derived from an analysis's labels so
// they can be checked against its own report.
func counts(a *core.Analysis) map[string]int {
	c := map[string]int{
		"valid":                len(a.FS.Records),
		"clusters":             len(a.Clusters.Clusters),
		"singletons":           a.Clusters.NumSingletons(),
		"ad_campaign_clusters": len(a.Clusters.AdCampaigns()),
	}
	if a.Meta != nil {
		c["meta_clusters"] = len(a.Meta.Meta)
		c["ad_related_meta"] = a.Meta.AdRelatedMeta()
		c["suspicious_meta"] = a.Meta.SuspiciousMeta()
	}
	for _, l := range a.Labels {
		if l.IsAd {
			c["ads"]++
			if l.Malicious() {
				c["malicious_ads"]++
			}
		}
		if l.AdViaMeta {
			c["ads_via_meta"]++
		}
		if l.KnownMalicious {
			c["known_malicious"]++
		}
		if l.Malicious() {
			c["malicious"]++
		}
	}
	return c
}

// minedAnalysis checks RunPipeline's own report against the counts
// derived from its labels, checks every valid record was clustered, and
// summarizes the analysis of records; truth maps each valid record to
// its true campaign.
func minedAnalysis(records []*crawler.WPNRecord, a *core.Analysis, truth func(i int, r *crawler.WPNRecord) string) (*mined, error) {
	c := counts(a)
	r := a.Report
	pairs := []struct {
		name      string
		got, want int
	}{
		{"ValidLanding", r.ValidLanding, c["valid"]},
		{"Clusters", r.Clusters, c["clusters"]},
		{"Singletons", r.Singletons, c["singletons"]},
		{"AdCampaignClusters", r.AdCampaignClusters, c["ad_campaign_clusters"]},
		{"MetaClusters", r.MetaClusters, c["meta_clusters"]},
		{"TotalMaliciousAds", r.TotalMaliciousAds, c["malicious_ads"]},
	}
	for _, p := range pairs {
		if p.got != p.want {
			return nil, fmt.Errorf("report %s = %d, labels give %d", p.name, p.got, p.want)
		}
	}
	if err := checkLabels(a.Clusters.Labels, len(a.FS.Records)); err != nil {
		return nil, err
	}
	mal := make([]bool, len(a.Labels))
	for i, l := range a.Labels {
		mal[i] = l.Malicious()
	}
	classes := make([]string, len(a.FS.Records))
	for i, r := range a.FS.Records {
		classes[i] = truth(i, r)
	}
	return &mined{
		parts: map[string]string{
			"records":   digest(records),
			"clusters":  digest([]any{a.Clusters.Labels, a.Clusters.CutHeight, a.Clusters.Silhouette}),
			"malicious": digest(mal),
			"counts":    digest(c),
		},
		wpns: len(records),
		ari:  adjustedRand(a.Clusters.Labels, classes),
		nmi:  normalizedMI(a.Clusters.Labels, classes),
	}, nil
}

// landingHostTruth is the synthetic corpus's campaign truth: every
// campaign pushes to its own landing host, every noise message to a
// unique one.
func landingHostTruth(_ int, r *crawler.WPNRecord) string {
	u, err := url.Parse(r.LandingURL)
	if err != nil {
		return r.LandingURL
	}
	return u.Host
}

// clusterStages are the mining_stage_ns stages ClusterWPNs reports,
// on the exact path and on the blocked one.
var clusterStages = []string{"distance_matrix", "linkage", "blocks", "block_linkage", "cut", "silhouette"}

// tracedPipeline is core.RunPipeline with a registry attached: the
// pipeline publishes its stage times and pair counts there, and they are
// read back into m.
func tracedPipeline(records []*crawler.WPNRecord, opts core.PipelineOptions, m map[string]float64) (*core.Analysis, error) {
	reg := telemetry.New()
	opts.Metrics = reg
	a, err := core.RunPipeline(records, opts)
	if err != nil {
		return nil, err
	}
	stages := reg.Family("mining_stage_ns", "stage").Counts()
	sec := func(s string) float64 { return float64(stages[s]) / 1e9 }
	for _, s := range []string{"filter", "featurize", "label", "propagate", "meta", "blocks", "block_linkage", "cut"} {
		m["core."+s+"_s"] = sec(s)
	}
	for _, s := range clusterStages {
		m["core.cluster_s"] += sec(s)
	}
	m["core.valid_records"] = float64(len(a.FS.Records))
	m["core.clusters"] = float64(len(a.Clusters.Clusters))
	pairs := reg.Family("cluster_pairs", "kind").Counts()
	m["cluster.exact_pairs"] = float64(pairs["exact"])
	m["cluster.exact_pair_frac"] = ratio(float64(pairs["exact"]), float64(pairs["exact"]+pairs["pruned"]))
	return a, nil
}
