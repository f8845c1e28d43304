// Incremental: the paper's Experiment 2 use case. A deployed model is
// periodically fed freshly observed attack samples; only the affected
// signatures' logistic parameters retrain, and detection improves without
// any manual signature work.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/ids"
	"psigene/internal/traffic"
)

func main() {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 1).Requests(1500)
	benign := traffic.NewGenerator(2).Requests(4000)
	tr, err := core.NewTrainer(attacks, benign, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	model := tr.Model()

	// A stream of fresh attacks from a scanner the model has not seen.
	fresh := attackgen.NewGenerator(attackgen.SQLMapProfile(), 50).Requests(1000)
	benignTest := traffic.NewGenerator(51).Requests(8000)

	evalNow := func(label string) {
		ra := ids.Evaluate(model, fresh)
		rb := ids.Evaluate(model, benignTest)
		fmt.Printf("%-28s TPR = %6.2f%%   FPR = %7.4f%%\n", label, ra.TPR()*100, rb.FPR()*100)
	}

	evalNow("baseline")
	// Feed batches of the fresh samples back in, as an operator deploying
	// pSigene would do on a schedule.
	for i, batch := range [][2]int{{0, 200}, {200, 400}} {
		if tr, err = tr.Update(fresh[batch[0]:batch[1]]); err != nil {
			log.Fatal(err)
		}
		model = tr.Model()
		evalNow(fmt.Sprintf("after batch %d (+200 samples)", i+1))
	}
}
